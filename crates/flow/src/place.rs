//! Placement: greedy row packing refined by simulated annealing.
//!
//! The OpenLANE placer (RePlAce + OpenDP) minimizes half-perimeter
//! wirelength (HPWL); we reproduce the same objective with a two-step
//! approach: a connectivity-ordered greedy row packing for the initial
//! solution, then simulated annealing over cell swaps with a geometric
//! cooling schedule. Primary I/O pins sit on the left (inputs) and right
//! (outputs) die edges.

use crate::floorplan::{Floorplan, ROW_HEIGHT_UM};
use openserdes_netlist::{CellId, NetId, Netlist};
use openserdes_pdk::library::Library;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// Cell and pin coordinates for one placed netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Per-cell centre coordinates in µm, indexed by `CellId`.
    positions: Vec<(f64, f64)>,
    /// Per-net pin coordinates of primary inputs (left edge).
    io_in: Vec<(NetId, (f64, f64))>,
    /// Pin coordinates of primary outputs (right edge).
    io_out: Vec<(NetId, (f64, f64))>,
    /// Per-net fixed pin position, if the net reaches an I/O pad.
    io_pin_of: Vec<Option<(f64, f64)>>,
    /// The floorplan placed into.
    pub floorplan: Floorplan,
}

impl Placement {
    /// Centre position of a cell in µm.
    pub fn position(&self, cell: CellId) -> (f64, f64) {
        self.positions[cell.index()]
    }

    /// All fixed I/O pin positions (net, xy).
    pub fn io_pins(&self) -> impl Iterator<Item = (NetId, (f64, f64))> + '_ {
        self.io_in.iter().chain(self.io_out.iter()).copied()
    }
}

/// Statistics from the annealing refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealStats {
    /// HPWL of the greedy initial placement, µm.
    pub initial_hpwl: f64,
    /// HPWL after annealing, µm.
    pub final_hpwl: f64,
    /// Number of accepted moves.
    pub accepted: usize,
    /// Number of attempted moves, same-cell draws included.
    pub attempted: usize,
    /// Pins read by full net-box recomputations, the initial pass
    /// included: the annealer's deterministic work count.
    pub pin_visits: u64,
}

/// Greedy initial placement: BFS order from the primary inputs, packing
/// cells into rows left to right so connected cells land near each other.
pub fn place_greedy(netlist: &Netlist, library: &Library, floorplan: &Floorplan) -> Placement {
    let widths: Vec<f64> = netlist
        .instances()
        .map(|(_, inst)| {
            library
                .cell(inst.function, inst.drive)
                .expect("library cell")
                .area
                .value()
                / ROW_HEIGHT_UM
        })
        .collect();

    // BFS over the connectivity graph starting from cells fed by primary
    // inputs, falling back to unvisited cells (disconnected components).
    let fanout = netlist.fanout_table();
    let mut order: Vec<CellId> = Vec::with_capacity(netlist.cell_count());
    let mut seen = vec![false; netlist.cell_count()];
    let mut queue: VecDeque<CellId> = VecDeque::new();
    for &pi in netlist.primary_inputs() {
        for &c in &fanout[pi.index()] {
            if !seen[c.index()] {
                seen[c.index()] = true;
                queue.push_back(c);
            }
        }
    }
    let mut fallback = netlist.cell_ids();
    loop {
        while let Some(c) = queue.pop_front() {
            order.push(c);
            let out = netlist.instance(c).output;
            for &s in &fanout[out.index()] {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    queue.push_back(s);
                }
            }
        }
        match fallback.find(|c| !seen[c.index()]) {
            Some(c) => {
                seen[c.index()] = true;
                queue.push_back(c);
            }
            None => break,
        }
    }

    // Pack in BFS order, wrapping rows.
    let mut positions = vec![(0.0, 0.0); netlist.cell_count()];
    let mut row = 0usize;
    let mut x = 0.0f64;
    for &c in &order {
        let w = widths[c.index()].max(0.1);
        if x + w > floorplan.width.value() && row + 1 < floorplan.rows {
            row += 1;
            x = 0.0;
        }
        positions[c.index()] = (x + w / 2.0, floorplan.row_y(row % floorplan.rows).value());
        x += w;
    }

    // I/O pins: inputs spread along the left edge, outputs along the right.
    let h = floorplan.height.value();
    let ins = netlist.primary_inputs();
    let io_in: Vec<(NetId, (f64, f64))> = ins
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let y = (i as f64 + 0.5) / ins.len().max(1) as f64 * h;
            (n, (0.0, y))
        })
        .collect();
    let outs = netlist.primary_outputs();
    let io_out: Vec<(NetId, (f64, f64))> = outs
        .iter()
        .enumerate()
        .map(|(i, (_, n))| {
            let y = (i as f64 + 0.5) / outs.len().max(1) as f64 * h;
            (*n, (floorplan.width.value(), y))
        })
        .collect();

    let mut io_pin_of: Vec<Option<(f64, f64)>> = vec![None; netlist.net_count()];
    for &(n, xy) in io_in.iter().chain(&io_out) {
        io_pin_of[n.index()] = Some(xy);
    }

    Placement {
        positions,
        io_in,
        io_out,
        io_pin_of,
        floorplan: *floorplan,
    }
}

/// Pin bounding box of one net: the unit the annealer caches its cost in.
#[derive(Debug, Clone, Copy)]
struct PinBox {
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
    pins: u32,
}

impl PinBox {
    const EMPTY: PinBox = PinBox {
        min_x: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        min_y: f64::INFINITY,
        max_y: f64::NEG_INFINITY,
        pins: 0,
    };

    fn add(&mut self, xy: (f64, f64)) {
        *self = self.extended(xy);
        self.pins += 1;
    }

    /// The box grown to cover `(x, y)` with the pin count unchanged: a
    /// moved pin's new point replaces its old one.
    fn extended(self, (x, y): (f64, f64)) -> PinBox {
        PinBox {
            min_x: self.min_x.min(x),
            max_x: self.max_x.max(x),
            min_y: self.min_y.min(y),
            max_y: self.max_y.max(y),
            pins: self.pins,
        }
    }

    /// Whether `(x, y)` lies strictly inside on both axes, so that the
    /// other pins alone still span the whole box.
    fn strictly_contains(&self, (x, y): (f64, f64)) -> bool {
        self.min_x < x && x < self.max_x && self.min_y < y && y < self.max_y
    }

    /// Half-perimeter wirelength in µm; zero below two pins.
    fn hpwl(&self) -> f64 {
        if self.pins < 2 {
            0.0
        } else {
            (self.max_x - self.min_x) + (self.max_y - self.min_y)
        }
    }
}

/// Every net's cell pins in one flat array: net `i` owns
/// `cells[start[i]..start[i + 1]]`, its driver first, then one entry per
/// sink pin (a cell reading the net on two pins appears twice).
struct NetPins {
    start: Vec<usize>,
    cells: Vec<usize>,
}

impl NetPins {
    fn new(netlist: &Netlist) -> Self {
        let fanout = netlist.fanout_table();
        let drivers = netlist.driver_table();
        let mut start = Vec::with_capacity(netlist.net_count() + 1);
        let mut cells = Vec::new();
        start.push(0);
        for (driver, sinks) in drivers.iter().zip(&fanout) {
            cells.extend(driver.map(CellId::index));
            cells.extend(sinks.iter().map(|c| c.index()));
            start.push(cells.len());
        }
        NetPins { start, cells }
    }

    /// Recomputes one net's box from every pin, I/O pad included.
    fn pin_box(&self, net: usize, placement: &Placement) -> PinBox {
        let mut b = PinBox::EMPTY;
        if let Some(xy) = placement.io_pin_of[net] {
            b.add(xy);
        }
        for &c in &self.cells[self.start[net]..self.start[net + 1]] {
            b.add(placement.positions[c]);
        }
        b
    }
}

/// Total HPWL of the placement in µm.
pub fn hpwl(netlist: &Netlist, placement: &Placement) -> f64 {
    let pins = NetPins::new(netlist);
    (0..netlist.net_count())
        .map(|net| pins.pin_box(net, placement).hpwl())
        .sum()
}

/// Which of the two swapped cells are pins of an affected net.
#[derive(Debug, Clone, Copy)]
enum Touch {
    A,
    B,
    Both,
}

/// Merges two sorted, deduplicated net lists into `out`, tagging each
/// net with the side(s) it came from.
fn merge_nets(a: &[usize], b: &[usize], out: &mut Vec<(usize, Touch)>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    loop {
        let next = match (a.get(i), b.get(j)) {
            (None, None) => break,
            (Some(&x), None) => (x, Touch::A),
            (None, Some(&y)) => (y, Touch::B),
            (Some(&x), Some(&y)) => match x.cmp(&y) {
                Ordering::Less => (x, Touch::A),
                Ordering::Greater => (y, Touch::B),
                Ordering::Equal => (x, Touch::Both),
            },
        };
        match next.1 {
            Touch::A => i += 1,
            Touch::B => j += 1,
            Touch::Both => (i, j) = (i + 1, j + 1),
        }
        out.push(next);
    }
}

/// Refines a placement with simulated annealing over cell-pair swaps.
///
/// Deterministic for a given `seed`. `iterations` is the number of
/// attempted moves; the temperature decays geometrically from an initial
/// value derived from the starting HPWL. `attempted` counts every draw,
/// including those that pick the same cell twice: such a draw neither
/// moves a cell nor cools the temperature.
///
/// The cost is incremental: each net's pin bounding box is cached and a
/// swap re-derives only the boxes of nets touching the two cells. A net
/// holding both cells keeps its box (its set of pin points is
/// unchanged); a net whose one moved pin sat strictly inside the box
/// just grows to the new point; anything else is recomputed from its
/// pins. `min`/`max` are exact and the sums run in the same net order
/// as a full recomputation, so every cost and decision is bit-identical
/// to re-walking each affected net (DESIGN.md "Incremental placement
/// cost").
pub fn anneal(
    netlist: &Netlist,
    placement: &mut Placement,
    seed: u64,
    iterations: usize,
) -> AnnealStats {
    let n = netlist.cell_count();
    let pins = NetPins::new(netlist);
    let mut boxes: Vec<PinBox> = (0..netlist.net_count())
        .map(|net| pins.pin_box(net, placement))
        .collect();
    let mut pin_visits: u64 = boxes.iter().map(|b| u64::from(b.pins)).sum();
    let initial: f64 = boxes.iter().map(PinBox::hpwl).sum();
    if n < 2 || iterations == 0 {
        return AnnealStats {
            initial_hpwl: initial,
            final_hpwl: initial,
            accepted: 0,
            attempted: 0,
            pin_visits,
        };
    }
    // Nets touching each cell, sorted and deduplicated.
    let cell_nets: Vec<Vec<usize>> = netlist
        .instances()
        .map(|(_, inst)| {
            let mut nets: Vec<usize> = inst.inputs.iter().map(|n| n.index()).collect();
            nets.push(inst.output.index());
            nets.extend(inst.clock.map(NetId::index));
            nets.sort_unstable();
            nets.dedup();
            nets
        })
        .collect();
    // Buffers reused by every move: the affected nets and their new boxes.
    let mut affected: Vec<(usize, Touch)> = Vec::new();
    let mut moved: Vec<PinBox> = Vec::new();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut cost = initial;
    let mut temp = (initial / n as f64).max(1.0);
    let cooling = 0.999_f64.powf(1000.0 / iterations.max(1) as f64);
    let mut accepted = 0usize;

    for _ in 0..iterations {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        merge_nets(&cell_nets[a], &cell_nets[b], &mut affected);
        let before: f64 = affected.iter().map(|&(net, _)| boxes[net].hpwl()).sum();
        placement.positions.swap(a, b);
        moved.clear();
        for &(net, touch) in &affected {
            let old = boxes[net];
            // The moved pin's old point is where the other cell now sits.
            let (from, to) = match touch {
                Touch::Both => {
                    moved.push(old);
                    continue;
                }
                Touch::A => (placement.positions[b], placement.positions[a]),
                Touch::B => (placement.positions[a], placement.positions[b]),
            };
            moved.push(if old.strictly_contains(from) {
                old.extended(to)
            } else {
                pin_visits += u64::from(old.pins);
                pins.pin_box(net, placement)
            });
        }
        let after: f64 = moved.iter().map(PinBox::hpwl).sum();
        let delta = after - before;
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
        if accept {
            cost += delta;
            accepted += 1;
            for (&(net, _), &new) in affected.iter().zip(&moved) {
                boxes[net] = new;
            }
        } else {
            placement.positions.swap(a, b);
        }
        temp *= cooling;
    }

    AnnealStats {
        initial_hpwl: initial,
        final_hpwl: cost,
        accepted,
        attempted: iterations,
        pin_visits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_pdk::corner::Pvt;
    use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
    use openserdes_pdk::units::AreaUm2;

    fn chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let mut s = a;
        for _ in 0..n {
            s = nl.gate(LogicFn::Inv, DriveStrength::X1, &[s]);
        }
        nl.mark_output("y", s);
        nl
    }

    fn setup(n: usize) -> (Netlist, Library, Floorplan) {
        floorplanned(chain(n))
    }

    fn floorplanned(nl: Netlist) -> (Netlist, Library, Floorplan) {
        let lib = Library::sky130(Pvt::nominal());
        let stats = openserdes_netlist::NetlistStats::compute(&nl, &lib);
        let fp = Floorplan::for_area(stats.area, 0.6, 1.0);
        (nl, lib, fp)
    }

    /// A clocked register bank built to hit every branch of the
    /// incremental cost: `flops` flops on one clock net, a mux per stage
    /// whose select is one high-fanout enable net, a cell reading the
    /// same net on both inputs, primary I/O pins, and whole rows of
    /// cells sharing a y coordinate with the box boundary.
    fn register_bank(flops: usize) -> Netlist {
        let mut nl = Netlist::new("bank");
        let clk = nl.add_input("clk");
        let en = nl.add_input("en");
        let mut q = nl.add_input("d");
        for i in 0..flops {
            let hold = nl.gate(LogicFn::Inv, DriveStrength::X1, &[q]);
            let d = nl.gate(LogicFn::Mux2, DriveStrength::X1, &[hold, q, en]);
            q = nl.dff(d, clk, DriveStrength::X1);
            if i % 5 == 4 {
                nl.mark_output(format!("q{i}"), q);
            }
        }
        let both = nl.gate(LogicFn::Xor2, DriveStrength::X1, &[q, q]);
        nl.mark_output("y", both);
        nl
    }

    /// Half-perimeter wirelength of one net, from every pin, counting
    /// the pins it reads into `visits`.
    fn net_hpwl(
        placement: &Placement,
        net: NetId,
        fanout: &[Vec<CellId>],
        drivers: &[Option<CellId>],
        visits: &mut u64,
    ) -> f64 {
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        let mut pins = 0usize;
        let mut add = |(x, y): (f64, f64), pins: &mut usize| {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
            *pins += 1;
        };
        if let Some(driver) = drivers[net.index()] {
            add(placement.position(driver), &mut pins);
        }
        if let Some(xy) = placement.io_pin_of[net.index()] {
            add(xy, &mut pins);
        }
        for &sink in &fanout[net.index()] {
            add(placement.position(sink), &mut pins);
        }
        *visits += pins as u64;
        if pins < 2 {
            0.0
        } else {
            (max_x - min_x) + (max_y - min_y)
        }
    }

    /// The annealer without a cache: every affected net re-walked from
    /// its pins before and after each swap. The oracle `anneal` must
    /// match bit for bit.
    fn anneal_full_recompute(
        netlist: &Netlist,
        placement: &mut Placement,
        seed: u64,
        iterations: usize,
    ) -> AnnealStats {
        let n = netlist.cell_count();
        let fanout = netlist.fanout_table();
        let drivers = netlist.driver_table();
        let mut pin_visits = 0u64;
        let initial: f64 = netlist
            .net_ids()
            .map(|net| net_hpwl(placement, net, &fanout, &drivers, &mut pin_visits))
            .sum();
        if n < 2 || iterations == 0 {
            return AnnealStats {
                initial_hpwl: initial,
                final_hpwl: initial,
                accepted: 0,
                attempted: 0,
                pin_visits,
            };
        }
        let mut cell_nets: Vec<Vec<NetId>> = vec![Vec::new(); n];
        for (id, inst) in netlist.instances() {
            let mut nets: Vec<NetId> = inst.inputs.clone();
            nets.push(inst.output);
            if let Some(c) = inst.clock {
                nets.push(c);
            }
            nets.sort_unstable();
            nets.dedup();
            cell_nets[id.index()] = nets;
        }
        let cells: Vec<CellId> = netlist.cell_ids().collect();

        let mut rng = StdRng::seed_from_u64(seed);
        let mut cost = initial;
        let mut temp = (initial / n as f64).max(1.0);
        let cooling = 0.999_f64.powf(1000.0 / iterations.max(1) as f64);
        let mut accepted = 0usize;

        for _ in 0..iterations {
            let a = cells[rng.gen_range(0..n)];
            let b = cells[rng.gen_range(0..n)];
            if a == b {
                continue;
            }
            let mut affected: Vec<NetId> = cell_nets[a.index()].clone();
            affected.extend(&cell_nets[b.index()]);
            affected.sort_unstable();
            affected.dedup();
            let before: f64 = affected
                .iter()
                .map(|&net| net_hpwl(placement, net, &fanout, &drivers, &mut pin_visits))
                .sum();
            placement.positions.swap(a.index(), b.index());
            let after: f64 = affected
                .iter()
                .map(|&net| net_hpwl(placement, net, &fanout, &drivers, &mut pin_visits))
                .sum();
            let delta = after - before;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
            if accept {
                cost += delta;
                accepted += 1;
            } else {
                placement.positions.swap(a.index(), b.index());
            }
            temp *= cooling;
        }

        AnnealStats {
            initial_hpwl: initial,
            final_hpwl: cost,
            accepted,
            attempted: iterations,
            pin_visits,
        }
    }

    /// Runs `anneal` and the oracle from the same start and asserts
    /// bit-identical positions and stats; returns both pin-visit counts
    /// (incremental, full).
    fn assert_matches_oracle(
        nl: &Netlist,
        start: &Placement,
        seed: u64,
        iterations: usize,
    ) -> (u64, u64) {
        let (mut fast, mut slow) = (start.clone(), start.clone());
        let got = anneal(nl, &mut fast, seed, iterations);
        let want = anneal_full_recompute(nl, &mut slow, seed, iterations);
        let at = format!("{} cells, seed {seed}, {iterations} moves", nl.cell_count());
        assert_eq!(
            got.initial_hpwl.to_bits(),
            want.initial_hpwl.to_bits(),
            "{at}"
        );
        assert_eq!(got.final_hpwl.to_bits(), want.final_hpwl.to_bits(), "{at}");
        assert_eq!(got.accepted, want.accepted, "{at}");
        assert_eq!(got.attempted, want.attempted, "{at}");
        let bits = |p: &Placement| -> Vec<(u64, u64)> {
            p.positions
                .iter()
                .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                .collect()
        };
        assert_eq!(bits(&fast), bits(&slow), "{at}: positions");
        (got.pin_visits, want.pin_visits)
    }

    #[test]
    fn greedy_places_all_cells_inside_core() {
        let (nl, lib, fp) = setup(50);
        let p = place_greedy(&nl, &lib, &fp);
        for id in nl.cell_ids() {
            let (x, y) = p.position(id);
            assert!(x >= 0.0 && x <= fp.width.value() + 1.0, "x = {x}");
            assert!(y >= 0.0 && y <= fp.height.value(), "y = {y}");
        }
    }

    #[test]
    fn greedy_beats_reversed_order_on_a_chain() {
        // Connectivity-ordered packing should give near-minimal HPWL for
        // a pure chain; compare against a deliberately bad placement.
        let (nl, lib, fp) = setup(40);
        let p = place_greedy(&nl, &lib, &fp);
        let good = hpwl(&nl, &p);
        let mut bad = p.clone();
        bad.positions.reverse();
        // Reversing misaligns I/O pins and chain order.
        let worse = hpwl(&nl, &bad);
        assert!(good <= worse, "greedy {good} vs reversed {worse}");
    }

    #[test]
    fn anneal_never_worsens_a_shuffled_placement() {
        let (nl, lib, fp) = setup(60);
        let mut p = place_greedy(&nl, &lib, &fp);
        // Shuffle deterministically to create slack for improvement.
        let n = nl.cell_count();
        for i in 0..n {
            p.positions.swap(i, (i * 7 + 3) % n);
        }
        let before = hpwl(&nl, &p);
        let stats = anneal(&nl, &mut p, 42, 4000);
        let after = hpwl(&nl, &p);
        assert!(stats.final_hpwl <= before * 1.001);
        // Incremental bookkeeping must agree with full recomputation.
        assert!(
            (stats.final_hpwl - after).abs() < 1e-6 * after.max(1.0),
            "incremental {} vs full {}",
            stats.final_hpwl,
            after
        );
        assert!(after < before, "annealing should improve a shuffle");
    }

    #[test]
    fn anneal_is_deterministic_per_seed() {
        let (nl, lib, fp) = setup(30);
        let run = |seed| {
            let mut p = place_greedy(&nl, &lib, &fp);
            anneal(&nl, &mut p, seed, 1000);
            hpwl(&nl, &p)
        };
        assert_eq!(run(7).to_bits(), run(7).to_bits());
    }

    #[test]
    fn hpwl_zero_for_empty_netlist() {
        let nl = Netlist::new("empty");
        let lib = Library::sky130(Pvt::nominal());
        let fp = Floorplan::for_area(AreaUm2::new(10.0), 0.5, 1.0);
        let p = place_greedy(&nl, &lib, &fp);
        assert_eq!(hpwl(&nl, &p), 0.0);
        let mut p2 = p;
        let stats = anneal(&nl, &mut p2, 1, 100);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn io_pins_on_die_edges() {
        let (nl, lib, fp) = setup(10);
        let p = place_greedy(&nl, &lib, &fp);
        let pins: Vec<_> = p.io_pins().collect();
        assert_eq!(pins.len(), 2); // one input, one output
        assert_eq!(pins[0].1 .0, 0.0);
        assert!((pins[1].1 .0 - fp.width.value()).abs() < 1e-9);
    }

    #[test]
    fn anneal_is_bit_identical_to_full_recompute() {
        for nl in [register_bank(40), chain(2)] {
            let (nl, lib, fp) = floorplanned(nl);
            let greedy = place_greedy(&nl, &lib, &fp);
            let mut shuffled = greedy.clone();
            let n = nl.cell_count();
            for i in 0..n {
                shuffled.positions.swap(i, (i * 7 + 3) % n);
            }
            for start in [&greedy, &shuffled] {
                for seed in [1, 7, 42, 2024] {
                    for iterations in [0, 1, 2, 50, 3_000] {
                        assert_matches_oracle(&nl, start, seed, iterations);
                    }
                }
            }
        }
        // The cache must actually save work on a clocked design.
        let (nl, lib, fp) = floorplanned(register_bank(40));
        let greedy = place_greedy(&nl, &lib, &fp);
        let (fast, full) = assert_matches_oracle(&nl, &greedy, 3, 3_000);
        assert!(fast < full / 2, "pin visits {fast} vs full {full}");
    }
}
