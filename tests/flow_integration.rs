//! Cross-crate integration: the RTL→layout flow on the real SerDes
//! blocks, including gate-level equivalence of the mapped netlists
//! against the behavioural FSMs.

use openserdes::core::job::{DesignSpec, FlowSummary, Response};
use openserdes::core::{
    cdr_design, deserializer_design, frame_to_bits, serializer_design, Serializer, FRAME_BITS,
};
use openserdes::digital::CycleSim;
use openserdes::flow::{synthesize, Flow, FlowConfig};
use openserdes::pdk::corner::{ProcessCorner, Pvt};
use openserdes::pdk::library::Library;
use openserdes::pdk::units::Hertz;

#[test]
fn serializer_netlist_equals_behavioural_fsm() {
    // Synthesize the serializer RTL and run the *gate-level* netlist
    // cycle by cycle against the behavioural model.
    let library = Library::sky130(Pvt::nominal());
    let design = serializer_design();
    let synth = synthesize(&design, &library).expect("synthesizes");
    let mut sim = CycleSim::new(&synth.netlist).expect("valid netlist");
    sim.reset_flops();
    if let Some(c0) = synth.const0 {
        sim.set_bit(c0, false);
    }
    if let Some(c1) = synth.const1 {
        sim.set_bit(c1, true);
    }
    let name_of = |n: &str| -> openserdes::netlist::NetId {
        let idx = design
            .input_names()
            .iter()
            .position(|x| x == n)
            .unwrap_or_else(|| panic!("no input {n}"));
        synth.inputs[idx]
    };
    let out_net = synth
        .outputs
        .iter()
        .find(|(n, _)| n == "serial_out")
        .expect("out")
        .1;

    let frame = [
        0x0F1E_2D3C_u32,
        0x4B5A_6978,
        0x8796_A5B4,
        0xC3D2_E1F0,
        1,
        2,
        3,
        4,
    ];
    let bits = frame_to_bits(&frame);

    sim.set_bit(name_of("load"), true);
    for (i, &b) in bits.iter().enumerate() {
        sim.set_bit(name_of(&format!("data[{i}]")), b);
    }
    sim.tick();
    sim.set_bit(name_of("load"), false);

    let mut behavioural = Serializer::new();
    behavioural.load(frame);
    for k in 0..FRAME_BITS {
        let expect = behavioural.tick().expect("busy");
        let got = sim.value(out_net).to_bool().expect("driven");
        assert_eq!(got, expect, "bit {k} diverged");
        sim.tick();
    }
}

#[test]
fn all_three_blocks_complete_the_flow() {
    let cfg = {
        let mut c = FlowConfig::at_clock(Hertz::from_ghz(2.0));
        c.anneal_iterations = 2_000;
        c
    };
    let flow = Flow::new().with_config(cfg);
    let ser = flow.run(&serializer_design()).expect("serializer flow");
    let des = flow.run(&deserializer_design()).expect("deserializer flow");
    let cdr = flow.run(&cdr_design(5)).expect("cdr flow");

    // Area ordering of Fig. 11: DES > SER > CDR.
    assert!(des.area().value() > ser.area().value());
    assert!(ser.area().value() > cdr.area().value());

    // Every block produces nonzero power, wirelength and a finite fmax.
    for (name, r) in [("ser", &ser), ("des", &des), ("cdr", &cdr)] {
        assert!(r.total_power().mw() > 0.0, "{name} power");
        assert!(r.route.total_length.value() > 0.0, "{name} wirelength");
        assert!(r.timing.fmax.ghz().is_finite(), "{name} fmax");
        assert!(r.stats.flop_count > 0, "{name} flops");
    }
}

#[test]
fn flow_retargets_across_corners_without_rtl_changes() {
    // The paper's process-portability claim: the identical Design runs
    // at every corner; timing and power move the right way.
    let design = cdr_design(5);
    let run_at = |pvt: Pvt| {
        let mut cfg = FlowConfig::at_clock(Hertz::from_ghz(1.0));
        cfg.pvt = pvt;
        cfg.anneal_iterations = 1_000;
        Flow::new()
            .with_config(cfg)
            .run(&design)
            .expect("flow runs")
    };
    let tt = run_at(Pvt::nominal());
    let ss = run_at(Pvt::new(ProcessCorner::SlowSlow, 1.62, 125.0));
    let ff = run_at(Pvt::new(ProcessCorner::FastFast, 1.98, -40.0));
    assert!(ss.timing.fmax.value() < tt.timing.fmax.value());
    assert!(tt.timing.fmax.value() < ff.timing.fmax.value());
    // Identical netlist structure at every corner (same RTL, same map).
    assert_eq!(ss.stats.cell_count, tt.stats.cell_count);
    assert_eq!(ff.stats.flop_count, tt.stats.flop_count);
}

#[test]
fn serializer_timing_envelope() {
    // The paper claims 2 Gb/s operation; the serial *datapath* (shift
    // register, one mux level) meets that easily, while the bit counter
    // is the flow's critical path. Our deliberately conservative NLDM
    // characterization signs the counter off around 1.3 GHz at tt —
    // within the envelope real sky130 silicon exhibits (official FO4
    // ≈ 90 ps). EXPERIMENTS.md discusses the gap to the paper's claim.
    let mut cfg = FlowConfig::at_clock(Hertz::from_ghz(2.0));
    cfg.anneal_iterations = 4_000;
    let r = Flow::new()
        .with_config(cfg)
        .run(&serializer_design())
        .expect("flow runs");
    assert!(
        r.timing.fmax.ghz() >= 1.1,
        "serializer fmax = {:.2} GHz",
        r.timing.fmax.ghz()
    );
    // The counter (sequential depth through the incrementer) must be the
    // limiter, not the shift-register datapath: the critical path ends
    // at a counter/flag flop, not a bank flop fed by the 1-mux shift.
    assert!(
        r.timing.critical_path.len() > 3,
        "critical path should be the multi-level counter, got {} cells",
        r.timing.critical_path.len()
    );
}

#[test]
fn deserializer_dominates_cell_count() {
    let library = Library::sky130(Pvt::nominal());
    let des = synthesize(&deserializer_design(), &library).expect("ok");
    let ser = synthesize(&serializer_design(), &library).expect("ok");
    let cdr = synthesize(&cdr_design(5), &library).expect("ok");
    assert!(des.netlist.cell_count() > ser.netlist.cell_count());
    assert!(ser.netlist.cell_count() > cdr.netlist.cell_count());
    // The deserializer's decoder makes it a multi-thousand-cell block.
    assert!(des.netlist.cell_count() > 1_000);
}

#[test]
fn whole_chip_top_completes_the_flow() {
    // The composed serdes_top (serializer + CDR + deserializer + scan)
    // through the full flow: one die, one clock, multicycle exceptions
    // carried through composition.
    let mut cfg = FlowConfig::at_clock(Hertz::from_ghz(2.0));
    cfg.anneal_iterations = 2_000;
    let top = openserdes::core::serdes_digital_top(5);
    let flow = Flow::new().with_config(cfg);
    let r = flow.run(&top).expect("top-level flow");
    assert_eq!(r.stats.flop_count, 583);
    assert!(r.stats.cell_count > 2_000);
    // The whole digital chip is bigger than any single block.
    let des = flow.run(&deserializer_design()).expect("des flow");
    assert!(r.area().value() > des.area().value());
    // Hold-clean and with a finite setup envelope.
    assert_eq!(r.timing.hold_violations, 0);
    assert!(r.timing.fmax.ghz() > 0.8);
}

/// FNV-1a over the bit patterns of every placed cell's coordinates.
fn placement_digest(r: &openserdes::flow::FlowResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for cell in r.synth.netlist.cell_ids() {
        let (x, y) = r.placement.position(cell);
        for byte in x
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(y.to_bits().to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One pinned default-config flow: design, corner, anneal initial and
/// final HPWL bits, accepted moves, placement digest and the canonical
/// `RunFlow` response.
type Golden = (
    DesignSpec,
    ProcessCorner,
    u64,
    u64,
    usize,
    u64,
    &'static str,
);

/// Captured from the full-recompute annealer before the incremental
/// pin-box cost replaced it; any drift in placement or signoff shows here.
const GOLDEN: [Golden; 15] = [
    (
        DesignSpec::Cdr { oversampling: 5 },
        ProcessCorner::Typical,
        0x40cc_2a1b_6cf9_cfda,
        0x40c6_9b56_2215_51a1,
        8127,
        0x9bf6_0949_06b8_6706,
        r#"{"kind":"flow","summary":{"design":"cdr","cells":372,"flops":39,"nets":378,"area_um2":3597.4250000000015,"power_mw":3.433527304489214,"fmax_ghz":1.3128840030071354,"wns_ps":238.31808620600205,"tns_ps":0.0,"violations":0,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::Cdr { oversampling: 5 },
        ProcessCorner::SlowSlow,
        0x40cc_2a1b_6cf9_cfda,
        0x40c6_9b56_2215_51a1,
        8127,
        0x9bf6_0949_06b8_6706,
        r#"{"kind":"flow","summary":{"design":"cdr","cells":372,"flops":39,"nets":378,"area_um2":3597.4250000000015,"power_mw":2.7811741453472627,"fmax_ghz":0.8286133654629833,"wns_ps":-206.83546956939972,"tns_ps":-6046.120568947367,"violations":36,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::Cdr { oversampling: 5 },
        ProcessCorner::FastFast,
        0x40cc_2a1b_6cf9_cfda,
        0x40c6_9b56_2215_51a1,
        8127,
        0x9bf6_0949_06b8_6706,
        r#"{"kind":"flow","summary":{"design":"cdr","cells":372,"flops":39,"nets":378,"area_um2":3597.4250000000015,"power_mw":4.154547225562951,"fmax_ghz":1.787254786384844,"wns_ps":440.48268460774847,"tns_ps":0.0,"violations":0,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::Serializer,
        ProcessCorner::Typical,
        0x40f6_d753_a5c6_dde6,
        0x40f2_4f6d_451c_145b,
        10290,
        0x9b2f_31ba_b663_60ea,
        r#"{"kind":"flow","summary":{"design":"serializer","cells":867,"flops":265,"nets":1125,"area_um2":11816.50000000005,"power_mw":15.149397266209082,"fmax_ghz":1.0049192393630593,"wns_ps":4.895158904686932,"tns_ps":0.0,"violations":0,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::Serializer,
        ProcessCorner::SlowSlow,
        0x40f6_d753_a5c6_dde6,
        0x40f2_4f6d_451c_145b,
        10290,
        0x9b2f_31ba_b663_60ea,
        r#"{"kind":"flow","summary":{"design":"serializer","cells":867,"flops":265,"nets":1125,"area_um2":11816.50000000005,"power_mw":12.271059041839376,"fmax_ghz":0.6149688235557914,"wns_ps":-626.098692642551,"tns_ps":-17859.8723248113,"violations":203,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::Serializer,
        ProcessCorner::FastFast,
        0x40f6_d753_a5c6_dde6,
        0x40f2_4f6d_451c_145b,
        10290,
        0x9b2f_31ba_b663_60ea,
        r#"{"kind":"flow","summary":{"design":"serializer","cells":867,"flops":265,"nets":1125,"area_um2":11816.50000000005,"power_mw":18.330712934523007,"fmax_ghz":1.442967665775563,"wns_ps":306.98377814133323,"tns_ps":0.0,"violations":0,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::Deserializer,
        ProcessCorner::Typical,
        0x40fa_5e1a_d751_7731,
        0x40f5_6e0e_0623_05dd,
        9193,
        0x4816_00aa_712a_0219,
        r#"{"kind":"flow","summary":{"design":"deserializer","cells":1221,"flops":265,"nets":1224,"area_um2":13653.115000000056,"power_mw":17.08973985961494,"fmax_ghz":0.9765306843148185,"wns_ps":-24.033362250822393,"tns_ps":-97.47696423174007,"violations":5,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::Deserializer,
        ProcessCorner::SlowSlow,
        0x40fb_8ded_9aa6_6aaf,
        0x40f5_83c6_4929_ac5d,
        9233,
        0xaed5_dc64_64a5_bd99,
        r#"{"kind":"flow","summary":{"design":"deserializer","cells":1221,"flops":265,"nets":1224,"area_um2":13831.480000000058,"power_mw":13.959582578117633,"fmax_ghz":0.6399272685191884,"wns_ps":-562.6775872733649,"tns_ps":-103677.8992462853,"violations":262,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::Deserializer,
        ProcessCorner::FastFast,
        0x40fa_5e1a_d751_7731,
        0x40f5_6e0e_0623_05dd,
        9193,
        0x4816_00aa_712a_0219,
        r#"{"kind":"flow","summary":{"design":"deserializer","cells":1221,"flops":265,"nets":1224,"area_um2":13653.115000000056,"power_mw":20.678518119717083,"fmax_ghz":1.4141819096907802,"wns_ps":292.8773921180646,"tns_ps":0.0,"violations":0,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::DigitalTop { oversampling: 5 },
        ProcessCorner::Typical,
        0x4113_f949_dc50_e110,
        0x4110_4123_4713_a751,
        9258,
        0xe400_34fe_aae4_387e,
        r#"{"kind":"flow","summary":{"design":"digital_top","cells":2412,"flops":583,"nets":2673,"area_um2":28752.949999999775,"power_mw":41.3030760097895,"fmax_ghz":0.6774456989766564,"wns_ps":-476.1330709023489,"tns_ps":-37960.67900472526,"violations":265,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::DigitalTop { oversampling: 5 },
        ProcessCorner::SlowSlow,
        0x4114_2067_aee6_7264,
        0x4110_57c8_2620_c498,
        9294,
        0xa43f_b859_3539_a043,
        r#"{"kind":"flow","summary":{"design":"digital_top","cells":2412,"flops":583,"nets":2673,"area_um2":29095.18749999977,"power_mw":33.6157233387854,"fmax_ghz":0.46166811347679904,"wns_ps":-1166.0581937726886,"tns_ps":-251667.574655848,"violations":433,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::DigitalTop { oversampling: 5 },
        ProcessCorner::FastFast,
        0x4113_f949_dc50_e110,
        0x4110_4123_4713_a751,
        9258,
        0xe400_34fe_aae4_387e,
        r#"{"kind":"flow","summary":{"design":"digital_top","cells":2412,"flops":583,"nets":2673,"area_um2":28752.949999999775,"power_mw":49.97657889922312,"fmax_ghz":0.991046357632604,"wns_ps":-9.034534356984489,"tns_ps":-16.429526400471957,"violations":2,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::ScanChain,
        ProcessCorner::Typical,
        0x4085_fe4c_a96a_a355,
        0x4082_1f42_1ee0_18f3,
        10921,
        0x3e53_719b_73d9_0eda,
        r#"{"kind":"flow","summary":{"design":"scan_chain","cells":28,"flops":14,"nets":32,"area_um2":463.1500000000001,"power_mw":0.5062839801764754,"fmax_ghz":3.0390276256489774,"wns_ps":670.9473808134758,"tns_ps":0.0,"violations":0,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::ScanChain,
        ProcessCorner::SlowSlow,
        0x4085_fe4c_a96a_a355,
        0x4082_1f42_1ee0_18f3,
        10921,
        0x3e53_719b_73d9_0eda,
        r#"{"kind":"flow","summary":{"design":"scan_chain","cells":28,"flops":14,"nets":32,"area_um2":463.1500000000001,"power_mw":0.41009173855094505,"fmax_ghz":2.1258504205852953,"wns_ps":529.6000178014984,"tns_ps":0.0,"violations":0,"hold_violations":0}}"#,
    ),
    (
        DesignSpec::ScanChain,
        ProcessCorner::FastFast,
        0x4085_fe4c_a96a_a355,
        0x4082_1f42_1ee0_18f3,
        10921,
        0x3e53_719b_73d9_0eda,
        r#"{"kind":"flow","summary":{"design":"scan_chain","cells":28,"flops":14,"nets":32,"area_um2":463.1500000000001,"power_mw":0.6126015203815353,"fmax_ghz":3.7717549611686145,"wns_ps":734.8714297998386,"tns_ps":0.0,"violations":0,"hold_violations":0}}"#,
    ),
];

#[test]
fn flow_outputs_are_pinned_bit_for_bit() {
    let pvt_of = |corner: ProcessCorner| match corner {
        ProcessCorner::Typical => Pvt::nominal(),
        ProcessCorner::SlowSlow => Pvt::worst_case(),
        ProcessCorner::FastFast => Pvt::best_case(),
        other => panic!("unpinned corner {other:?}"),
    };
    for (design, corner, initial, fin, accepted, digest, json) in GOLDEN {
        let cfg = FlowConfig {
            pvt: pvt_of(corner),
            ..FlowConfig::default()
        };
        let r = Flow::new()
            .with_config(cfg)
            .run(&design.build())
            .expect("flow runs");
        let at = format!("{} at {corner:?}", design.tag());
        assert_eq!(
            r.anneal.initial_hpwl.to_bits(),
            initial,
            "{at}: initial HPWL"
        );
        assert_eq!(r.anneal.final_hpwl.to_bits(), fin, "{at}: final HPWL");
        assert_eq!(r.anneal.accepted, accepted, "{at}: accepted moves");
        assert_eq!(placement_digest(&r), digest, "{at}: placement digest");
        let got = Response::Flow(FlowSummary::from_result(&design, &r)).to_canonical_json();
        assert_eq!(got, json, "{at}: flow summary");
    }
}
