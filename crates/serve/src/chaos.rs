//! The loopback driver for `openserdes-fault`'s seeded server-plane
//! fault taxonomy: [`inject`] turns one [`ServerFaultKind`] event into
//! real sockets and hostile bytes against a live server.
//!
//! The plan and its ledger live in `openserdes-fault`; this module only
//! executes events. Both chaos harnesses (the serve loopback tests and
//! the `bench serve --chaos` phase) call it, then check that the server
//! billed every fault to its contracted `serve.*` counter.

use crate::client::{Client, ClientError};
use crate::wire;
use openserdes_core::job::{Request, Response, SweepSpec};
use openserdes_core::LinkConfig;
use openserdes_fault::ServerFaultKind;
use std::fmt::Display;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Bound on every read the driver makes, so a server that stops
/// answering fails the event instead of hanging it.
const READ_BUDGET: Duration = Duration::from_millis(500);

/// Executes one fault event against the server at `addr` and checks
/// the typed reply the fault must produce, where it has one.
///
/// # Errors
///
/// A description of the first step that failed: a socket error, a
/// bounded read that timed out, or a reply that is not the typed one
/// the fault contracts.
pub fn inject(addr: SocketAddr, kind: ServerFaultKind) -> Result<(), String> {
    match kind {
        ServerFaultKind::DropMidFrame => {
            let mut s = connect(addr)?;
            s.write_all(&100u32.to_be_bytes()).map_err(ctx("prefix"))?;
            s.write_all(&[0x78; 10]).map_err(ctx("partial payload"))?;
            drop(s);
            std::thread::sleep(Duration::from_millis(30));
        }
        ServerFaultKind::TruncatedFrame { promised } => {
            let mut s = connect(addr)?;
            s.write_all(&promised.to_be_bytes())
                .map_err(ctx("prefix"))?;
            s.write_all(&vec![0x79; (promised / 2) as usize])
                .map_err(ctx("half payload"))?;
            drop(s);
            std::thread::sleep(Duration::from_millis(30));
        }
        ServerFaultKind::OversizedPrefix { announced } => {
            let mut s = connect(addr)?;
            let prefix = announced.min(u64::from(u32::MAX)) as u32;
            s.write_all(&prefix.to_be_bytes())
                .map_err(ctx("hostile prefix"))?;
            expect_error_frame(&mut s, "MAX_FRAME")?;
            match wire::read_frame_blocking(&mut s).map_err(ctx("close"))? {
                None => {}
                Some(_) => return Err("expected a clean close after the typed reply".into()),
            }
        }
        ServerFaultKind::StalledReader { hold_ms } => {
            let mut s = connect(addr)?;
            s.write_all(&64u32.to_be_bytes()).map_err(ctx("prefix"))?;
            s.write_all(b"stall").map_err(ctx("first bytes"))?;
            // Hold the frame half-fed past the server's read idle
            // limit; the server must cut us off, not wait forever.
            std::thread::sleep(Duration::from_millis(hold_ms));
            drop(s);
        }
        ServerFaultKind::WorkerPanic => {
            let mut poison = LinkConfig::paper_default();
            poison.cdr.oversampling = 0;
            let request = Request::RunLink {
                config: poison,
                frames: vec![[7u32; 8]],
            };
            let mut client = Client::connect(addr, "chaos-panic").map_err(ctx("connect"))?;
            match client.submit(1, 31_337, &request) {
                Err(ClientError::Server(msg)) if msg.contains("panicked") => {}
                other => return Err(format!("expected an isolated panic, got {other:?}")),
            }
        }
        ServerFaultKind::DeadlineStorm { jobs } => {
            let request = Request::Bathtub {
                config: LinkConfig::paper_default(),
                sweep: SweepSpec {
                    bits: 1_000,
                    phases: 4,
                    frames: 2,
                    tol_db: 1.0,
                },
            };
            let mut client = Client::connect(addr, "chaos-storm").map_err(ctx("connect"))?;
            for i in 0..jobs {
                match client.submit_with_deadline(1, 50_000 + i, Some(0), &request) {
                    Ok(Response::DeadlineExceeded(info)) if info.deadline_ms == 0 => {}
                    other => return Err(format!("expected deadline exceeded, got {other:?}")),
                }
            }
        }
        ServerFaultKind::ConnFlood { conns } => {
            // Let EOFs from earlier events settle first, so the cap is
            // filled by exactly these holders and nothing stale.
            std::thread::sleep(Duration::from_millis(50));
            let holders = (0..4)
                .map(|_| connect(addr))
                .collect::<Result<Vec<_>, _>>()?;
            std::thread::sleep(Duration::from_millis(50));
            for _ in 0..conns {
                expect_error_frame(&mut connect(addr)?, "capacity")?;
            }
            drop(holders);
            std::thread::sleep(Duration::from_millis(30));
        }
    }
    Ok(())
}

/// Opens a raw connection whose reads are bounded by [`READ_BUDGET`].
fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(ctx("connect"))?;
    s.set_read_timeout(Some(READ_BUDGET))
        .map_err(ctx("bound reads"))?;
    Ok(s)
}

/// Reads one reply frame and checks it is an error naming `needle`.
fn expect_error_frame(s: &mut TcpStream, needle: &str) -> Result<(), String> {
    let reply = wire::read_frame_blocking(s)
        .map_err(ctx("typed reply"))?
        .ok_or("connection closed before the typed reply")?;
    let text = String::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_string())?;
    match wire::parse_reply(&text).map_err(ctx("parse reply"))? {
        Err(msg) if msg.contains(needle) => Ok(()),
        other => Err(format!(
            "expected an error frame naming `{needle}`, got {other:?}"
        )),
    }
}

/// Prefixes an error with the driver step it broke.
fn ctx<E: Display>(step: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{step}: {e}")
}
