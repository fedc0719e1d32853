//! `fairschedd` — the online scheduling daemon.
//!
//! ```text
//! fairschedd [--port N] [--port-file PATH] [--policy ID] [--nodes N]
//!            [--speedup X | --manual] [--no-trace] [--id-floor N]
//!            [--workers N] [--max-connections N]
//!            [--journal-dir DIR] [--recover]
//! ```
//!
//! Binds `127.0.0.1:<port>` (port 0 = OS-assigned; the resolved port is
//! announced on stderr and, with `--port-file`, written to a file for
//! scripts to pick up). Runs until `POST /v1/shutdown`. `fairsched serve`
//! takes the same flags; both parse them with
//! [`ServeArgs::parse`](fairsched_served::daemon::ServeArgs::parse).
//!
//! `--journal-dir DIR` turns on durability: every accepted submission
//! and clock grant appends to a checksummed per-session journal under
//! `DIR`. After a crash (even SIGKILL), `--recover` with the same
//! `--journal-dir` replays the journals and continues every session
//! exactly where its acknowledged history ends — the recovered schedule
//! is byte-identical to an uninterrupted run.

use fairsched_served::daemon::{serve, ServeArgs, SERVE_FLAGS};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = ServeArgs::parse(&argv).unwrap_or_else(|e| {
        eprintln!("fairschedd: {e}\nusage: fairschedd {SERVE_FLAGS}");
        std::process::exit(2);
    });
    match serve(args) {
        Ok(s) => println!(
            "fairschedd stopped: {} submissions accepted, {} completed, final simulated time t={}",
            s.accepted, s.completed, s.now
        ),
        Err(e) => {
            eprintln!("fairschedd: {e}");
            std::process::exit(1);
        }
    }
}
