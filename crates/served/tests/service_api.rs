//! End-to-end tests for `fairschedd` over real HTTP: a daemon on an
//! OS-assigned port, the typed client, trace streaming, typed rejections
//! crossing the wire, the connection loop's bounds, the shared entry
//! point, and clean shutdown.

use fairsched_served::clock::ClockMode;
use fairsched_served::daemon::{serve, DaemonConfig, ServeArgs};
use fairsched_served::session::SessionConfig;
use fairsched_served::{Client, Daemon, ServeError, SessionSpec, SubmitRequest};
use fairsched_sim::{simulate, NullObserver, SimOptions};
use fairsched_workload::job::Job;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn manual_daemon(policy: &str, nodes: u32) -> Daemon {
    Daemon::start(
        "127.0.0.1:0",
        SessionConfig {
            policy: policy.into(),
            nodes,
            clock: ClockMode::Manual,
            traced: true,
            id_floor: 0,
            ..SessionConfig::default()
        },
    )
    .expect("daemon start")
}

fn req(id: u32, user: u32, submit: u64, nodes: u32, runtime: u64) -> SubmitRequest {
    SubmitRequest {
        id,
        user,
        group: 1,
        submit,
        nodes,
        runtime,
        estimate: runtime,
    }
}

#[test]
fn submit_status_advance_seal_over_http() {
    let mut daemon = manual_daemon("easy.nomax", 64);
    let client = Client::new(daemon.addr());

    let ack = client.submit(&req(1, 1, 0, 64, 100)).unwrap();
    assert_eq!(ack.id, 1);
    client.submit(&req(2, 2, 10, 32, 50)).unwrap();

    let status = client.status().unwrap();
    assert_eq!(status.accepted, 2);
    assert_eq!(status.policy, "easy.nomax");
    assert!(!status.sealed);

    let advanced = client.advance(100).unwrap();
    assert_eq!(advanced.now, 100);
    assert!(advanced.started >= 1);

    let seal = client.seal().unwrap();
    assert_eq!(seal.records, 2);
    assert!(seal.makespan > 0);

    let status = client.status().unwrap();
    assert!(status.sealed);
    assert_eq!(status.completed, 2);

    client.shutdown().unwrap();
    daemon.shutdown();
}

/// `GET path` on a fresh connection; returns the response body.
fn get_body(daemon: &Daemon, path: &str) -> String {
    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    let (_, body) = response.split_once("\r\n\r\n").expect("head ends");
    body.to_string()
}

#[test]
fn counters_and_job_records_read_the_same_before_and_after_seal() {
    let mut daemon = manual_daemon("easy.nomax", 64);
    let client = Client::new(daemon.addr());
    for (id, submit) in [(1, 0), (2, 10), (3, 20)] {
        client.submit(&req(id, id, submit, 48, 100)).unwrap();
    }
    client.advance(1_000).unwrap();
    let before = client.status().unwrap();
    assert_eq!((before.accepted, before.completed), (3, 3));
    let paths = ["/v1/jobs/1", "/v1/jobs/2", "/v1/jobs/3", "/v1/jobs/4"];
    let records: Vec<String> = paths.iter().map(|p| get_body(&daemon, p)).collect();
    assert!(records[..3].iter().all(|r| r.contains("\"found\":true")));
    assert!(records[3].contains("\"found\":false"));

    client.seal().unwrap();
    let after = client.status().unwrap();
    assert!(after.sealed);
    assert_eq!(
        (after.accepted, after.completed),
        (before.accepted, before.completed)
    );
    let sealed: Vec<String> = paths.iter().map(|p| get_body(&daemon, p)).collect();
    assert_eq!(sealed, records);
    client.shutdown().unwrap();
    daemon.shutdown();
}

#[test]
fn typed_rejections_cross_the_wire() {
    let mut daemon = manual_daemon("easy.nomax", 64);
    let client = Client::new(daemon.addr());

    client.submit(&req(1, 1, 0, 64, 100)).unwrap();
    client.advance(500).unwrap();

    // Non-monotonic: dated before the granted horizon.
    match client.submit(&req(2, 2, 499, 8, 10)) {
        Err(ServeError::NonMonotonicSubmit {
            job,
            submit,
            granted,
        }) => {
            assert_eq!(job.0, 2);
            assert_eq!(submit, 499);
            assert_eq!(granted, 500);
        }
        other => panic!("expected NonMonotonicSubmit, got {other:?}"),
    }

    // Duplicate id.
    match client.submit(&req(1, 1, 600, 8, 10)) {
        Err(ServeError::DuplicateId { job }) => assert_eq!(job.0, 1),
        other => panic!("expected DuplicateId, got {other:?}"),
    }

    // A job wider than the machine is a sim-level rejection.
    assert!(matches!(
        client.submit(&req(3, 1, 600, 1000, 10)),
        Err(ServeError::Sim(_))
    ));

    // Malformed body.
    assert!(matches!(
        client.submit(&req(4, 0, 600, 0, 10)),
        Err(ServeError::Sim(_)) | Err(ServeError::BadRequest { .. })
    ));

    client.shutdown().unwrap();
    daemon.shutdown();
}

#[test]
fn unknown_policy_ids_fail_daemon_startup_typed() {
    let err = match Daemon::start(
        "127.0.0.1:0",
        SessionConfig {
            policy: "not-a-policy".into(),
            ..SessionConfig::default()
        },
    ) {
        Ok(_) => panic!("daemon started under an unknown policy"),
        Err(e) => e,
    };
    match err {
        ServeError::UnknownPolicy(e) => assert_eq!(e.id, "not-a-policy"),
        other => panic!("expected UnknownPolicy, got {other:?}"),
    }
}

#[test]
fn trace_streams_as_jsonl_until_seal() {
    let mut daemon = manual_daemon("cplant24.nomax.all", 32);
    let addr = daemon.addr();
    let streamer = std::thread::spawn(move || Client::new(addr).trace_lines());

    // Give the subscriber a moment to attach before records flow.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let client = Client::new(addr);
    client.submit(&req(1, 1, 0, 32, 100)).unwrap();
    client.submit(&req(2, 2, 5, 16, 80)).unwrap();
    client.submit(&req(3, 3, 9, 32, 20)).unwrap();
    client.seal().unwrap();

    let lines = streamer.join().unwrap().unwrap();
    assert!(!lines.is_empty(), "no trace lines streamed");
    assert!(lines.iter().any(|l| l.contains("job_started")));
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not JSONL: {line}"
        );
    }

    client.shutdown().unwrap();
    daemon.shutdown();
}

#[test]
fn online_http_replay_matches_batch() {
    let jobs = [
        Job::new(1, 1, 1, 0, 24, 300, 400),
        Job::new(2, 2, 1, 20, 16, 500, 500),
        Job::new(3, 1, 1, 40, 8, 100, 200),
        Job::new(4, 3, 1, 350, 32, 50, 60),
        Job::new(5, 2, 1, 360, 4, 700, 900),
    ];
    let spec = fairsched_core::policy::PolicySpec::parse("easy.nomax").unwrap();
    let batch = simulate(
        &jobs,
        &spec.sim_config(32),
        &mut NullObserver,
        SimOptions::new(),
    )
    .unwrap();

    let mut daemon = manual_daemon("easy.nomax", 32);
    let client = Client::new(daemon.addr());
    for job in &jobs {
        // Grant time up to just below each submission first, interleaving
        // grants and submissions the way a live feed would.
        client.advance(job.submit.saturating_sub(1)).unwrap();
        client.submit(&SubmitRequest::from_job(job)).unwrap();
    }
    let seal = client.seal().unwrap();
    assert_eq!(seal.records, batch.records.len() as u64);

    let online = daemon.session().schedule().expect("schedule after seal");
    assert_eq!(online, batch, "online HTTP replay diverged from batch");

    client.shutdown().unwrap();
    daemon.shutdown();
}

#[test]
fn live_explain_and_profile_respond_over_http() {
    let mut daemon = manual_daemon("easy.nomax", 16);
    let client = Client::new(daemon.addr());

    client.submit(&req(1, 1, 0, 16, 200)).unwrap();
    client.submit(&req(2, 2, 10, 16, 50)).unwrap();
    client.advance(200).unwrap();

    let explain = client.explain(2).unwrap();
    assert_eq!(
        explain.get("found").and_then(|v| v.as_bool()),
        Some(true),
        "started job must explain live: {explain:?}"
    );
    assert_eq!(explain.get("start").and_then(|v| v.as_u64()), Some(200));

    let profile = client.profile().unwrap();
    assert!(profile.get("wall_ns").and_then(|v| v.as_u64()).unwrap() > 0);
    assert!(profile.get("steps").and_then(|v| v.as_u64()).unwrap() >= 3);

    client.shutdown().unwrap();
    daemon.shutdown();
}

fn manual_daemon_with(workers: usize, max_connections: usize) -> Daemon {
    let cfg = DaemonConfig {
        workers,
        max_connections,
        ..DaemonConfig::new(SessionConfig {
            nodes: 64,
            ..SessionConfig::default()
        })
    };
    Daemon::start_with("127.0.0.1:0", cfg).expect("daemon start")
}

#[test]
fn one_handler_permit_serves_interleaved_keep_alive_clients() {
    let mut daemon = manual_daemon_with(1, 1024);
    let clients: Vec<Client> = (0..3)
        .map(|_| Client::new(daemon.addr()).with_timeout(Duration::from_secs(5)))
        .collect();
    // Every client keeps its connection open between requests; with one
    // permit, an idle connection must never stand in another's way.
    for round in 0..3u32 {
        for (c, client) in clients.iter().enumerate() {
            let id = round * 3 + c as u32 + 1;
            client.submit(&req(id, id, u64::from(id), 4, 10)).unwrap();
            assert_eq!(client.status().unwrap().accepted, u64::from(id));
        }
    }
    clients[0].shutdown().unwrap();
    daemon.shutdown();
}

#[test]
fn a_connection_over_the_cap_reads_a_typed_503() {
    let mut daemon = manual_daemon_with(8, 1);
    let first = Client::new(daemon.addr()).with_timeout(Duration::from_secs(5));
    first.status().unwrap();

    let mut second = TcpStream::connect(daemon.addr()).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(second, "GET /v1/status HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    second
        .read_to_string(&mut response)
        .expect("the over-cap answer must be readable, not a reset");
    assert!(response.starts_with("HTTP/1.1 503 "), "{response}");
    assert!(response.contains("Connection: close"), "{response}");
    assert!(response.contains("\"error\":\"overloaded\""), "{response}");

    // The connection under the cap is still served; once it closes, a
    // new one fits again.
    first.status().unwrap();
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(2);
    let third = Client::new(daemon.addr()).with_timeout(Duration::from_secs(5));
    while third.status().is_err() {
        assert!(Instant::now() < deadline, "the freed slot never reopened");
    }
    daemon.shutdown();
}

#[test]
fn shutdown_with_idle_keep_alive_connections_returns_promptly() {
    let mut daemon = manual_daemon_with(2, 1024);
    let clients: Vec<Client> = (0..5).map(|_| Client::new(daemon.addr())).collect();
    for client in &clients {
        client.status().unwrap();
    }
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        daemon.shutdown();
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(2))
        .expect("shutdown must return within 2 s with idle connections open");
    drop(clients);
}

#[test]
fn the_entry_point_ticks_api_created_sessions_under_a_realtime_clock() {
    let dir = std::env::temp_dir().join(format!("fairschedd-entry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let _ = std::fs::remove_file(&port_file);
    let args = ServeArgs::parse(&[
        "--port",
        "0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--speedup",
        "100",
        "--nodes",
        "64",
    ])
    .unwrap();
    let server = std::thread::spawn(move || serve(args));

    let deadline = Instant::now() + Duration::from_secs(10);
    let port: u16 = loop {
        assert!(Instant::now() < deadline, "daemon never wrote its port");
        if let Some(port) = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|text| text.trim().parse().ok())
        {
            break port;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let client = Client::new(format!("127.0.0.1:{port}").parse().unwrap());
    client.create_session(&SessionSpec::named("live")).unwrap();
    let live = client.for_session("live");

    // Dated just ahead of the moving horizon; no one calls advance/tick.
    let granted = live.status().unwrap().granted;
    live.submit(&req(1, 1, granted + 50, 8, 10)).unwrap();
    while live.status().unwrap().completed < 1 {
        assert!(
            Instant::now() < deadline,
            "a job in an API-created realtime session never ran"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    client.shutdown().unwrap();
    server
        .join()
        .unwrap()
        .expect("serve returns the final status");
    std::fs::remove_dir_all(&dir).unwrap();
}
