//! The shared TCP reactor must not busy-spin at zero load. Each front is
//! served with a few idle connections and one half-closed peer for about
//! 300 ms; the reactor thread's own CPU time (`utime + stime` from
//! `/proc/thread-self/stat`) must stay far below one core. A loop that
//! polled a descriptor it has no interest in — a writable idle socket, a
//! peer's end-of-stream — would burn the whole window instead.

#![cfg(target_os = "linux")]

use rambo_core::{Rambo, RamboParams};
use rambo_server::{
    serve_live_tcp, serve_tcp, serve_tenant_tcp, Catalog, LiveServer, ServeOptions, Server,
    ServerConfig, TenantQuotas, TenantRegistry, TenantServeOptions,
};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How long each front idles under observation.
const IDLE: Duration = Duration::from_millis(300);
/// CPU budget for the reactor thread over [`IDLE`], in clock ticks
/// (usually 10 ms each): a spinning loop would use about 30.
const MAX_TICKS: u64 = 10;

fn params() -> RamboParams {
    RamboParams::flat(8, 3, 1 << 10, 2, 7)
}

/// `utime + stime` of the calling thread, in clock ticks.
fn thread_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("thread stat");
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

/// Serve on a fresh thread, open three idle connections and one half-closed
/// peer, idle for [`IDLE`], stop, and return the reactor thread's CPU ticks.
fn idle_reactor_ticks(
    addrs: &[SocketAddr],
    stop: &AtomicBool,
    serve: impl FnOnce() -> io::Result<()> + Send,
) -> u64 {
    std::thread::scope(|s| {
        let reactor = s.spawn(|| {
            serve().expect("serve");
            thread_cpu_ticks()
        });
        let mut peers = Vec::new();
        for &addr in addrs {
            for _ in 0..3 {
                peers.push(TcpStream::connect(addr).expect("connect"));
            }
            let mut half_closed = TcpStream::connect(addr).expect("connect");
            half_closed.write_all(&[0, 0]).expect("partial frame");
            half_closed.shutdown(Shutdown::Write).expect("half-close");
            peers.push(half_closed);
        }
        std::thread::sleep(IDLE);
        stop.store(true, Ordering::Relaxed);
        reactor.join().expect("reactor thread")
    })
}

fn assert_idle(front: &str, ticks: u64) {
    assert!(
        ticks < MAX_TICKS,
        "{front} reactor used {ticks} clock ticks idling for {IDLE:?}"
    );
}

#[test]
fn catalog_front_does_not_spin_when_idle() {
    let mut index = Rambo::new(params()).unwrap();
    for d in 0..8u64 {
        index
            .insert_document(&format!("doc{d}"), (0..20).map(|t| d << 16 | t))
            .unwrap();
    }
    let catalog = Catalog::build_halving(&index, 0).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let (ticks, _) = Server::scope(&catalog, ServerConfig::default(), |handle| {
        idle_reactor_ticks(&[addr], &stop, || serve_tcp(handle, listener, &stop))
    });
    assert_idle("catalog", ticks);
}

#[test]
fn live_front_does_not_spin_when_idle() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let (ticks, _) = LiveServer::scope(params(), ServerConfig::default(), |handle| {
        idle_reactor_ticks(&[addr], &stop, || {
            serve_live_tcp(handle, listener, &stop, &ServeOptions::default())
        })
    })
    .unwrap();
    assert_idle("live", ticks);
}

#[test]
fn tenant_front_does_not_spin_when_idle() {
    let registry = TenantRegistry::new(params(), TenantQuotas::default()).unwrap();
    let resp = TcpListener::bind("127.0.0.1:0").unwrap();
    let binary = TcpListener::bind("127.0.0.1:0").unwrap();
    let addrs = [resp.local_addr().unwrap(), binary.local_addr().unwrap()];
    let stop = AtomicBool::new(false);
    let ticks = idle_reactor_ticks(&addrs, &stop, || {
        serve_tenant_tcp(
            &registry,
            resp,
            Some(binary),
            &stop,
            &TenantServeOptions::default(),
        )
    });
    assert_idle("tenant", ticks);
}
