//! End-to-end test of the HTTP daemon over real loopback TCP: bind an
//! ephemeral port, drive it with a hand-rolled client, shut it down.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cafc::{
    ExecPolicy, FormPageCorpus, ModelOptions, Obs, Partition, SearchConfig, SearchPipeline,
};
use cafc_serve::{ServeOptions, Server, SharedIndex};

fn build_index() -> cafc::SearchIndex {
    let pages: Vec<String> = (0..8)
        .map(|i| {
            let topic = if i % 2 == 0 {
                "airfare travel flights airline"
            } else {
                "careers employment salary resume"
            };
            format!("<p>{topic} database page{i}</p><form><input name=f{i}></form>")
        })
        .collect();
    let corpus = FormPageCorpus::from_html(
        pages.iter().map(|p| p.as_str()),
        &ModelOptions::default(),
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let partition = Partition::new(
        vec![
            (0..8).filter(|i| i % 2 == 0).collect(),
            (0..8).filter(|i| i % 2 == 1).collect(),
        ],
        8,
    );
    SearchPipeline::builder()
        .config(SearchConfig::new().with_k(5))
        .build()
        .index(&corpus, Some(&partition))
}

/// Issue one request and return `(status, body)`.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn server_answers_search_metrics_health_and_shuts_down() {
    let obs = Obs::enabled();
    let server = Server::bind(
        "127.0.0.1:0",
        build_index(),
        obs.clone(),
        ServeOptions::new().with_workers(2).with_backlog(8),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    let runner = std::thread::spawn(move || server.run().expect("server run"));

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    let (status, body) = get(addr, "/search?q=airfare+travel&k=3");
    assert_eq!(status, 200, "body: {body}");
    assert!(body.starts_with("{\"query\":\"airfare travel\",\"k\":3,\"hits\":["));
    assert!(body.contains("\"doc\":"), "no hits in {body}");
    assert!(body.contains("\"postings_scanned\""), "no stats in {body}");

    // Identical requests produce byte-identical responses.
    let again = get(addr, "/search?q=airfare+travel&k=3");
    assert_eq!(again, (200, body));

    let (status, body) = get(addr, "/search?q=zzzznothing");
    assert_eq!(status, 200);
    assert!(body.contains("\"hits\":[]"), "expected empty hits: {body}");

    let (status, body) = get(addr, "/search?k=3");
    assert_eq!(status, 400);
    assert!(body.contains("missing required parameter q"));

    let (status, body) = get(addr, "/search?q=a&k=zero");
    assert_eq!(status, 400);
    assert!(body.contains("positive integer"));

    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("\"counters\""), "metrics body: {body}");
    assert!(body.contains("serve.requests"), "metrics body: {body}");

    let (status, body) = get(addr, "/shutdown");
    assert_eq!(status, 200);
    assert!(body.contains("stopping"));
    let accepted = runner.join().expect("server thread");
    assert!(accepted >= 9, "accepted {accepted} connections");

    let snapshot = obs.snapshot().render_text();
    assert!(snapshot.contains("serve.requests"), "snapshot: {snapshot}");
}

/// Send `request` verbatim and return `(status, body)`. With `half_close`,
/// shut down the write side first so the server sees EOF where the request
/// stops — how a truncated request looks on the wire.
fn raw_request(addr: SocketAddr, request: &str, half_close: bool) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    stream.write_all(request.as_bytes()).expect("send");
    if half_close {
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
    }
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Bind a server on an ephemeral port, run `exercise` against it, shut down.
fn with_server(exercise: impl FnOnce(SocketAddr)) {
    let server = Server::bind(
        "127.0.0.1:0",
        build_index(),
        Obs::disabled(),
        ServeOptions::new().with_workers(2),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    exercise(addr);
    handle.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn plus_in_path_stays_literal() {
    // Regression: percent_decode applied `+`-as-space to the path, so
    // `/a+b` resolved as `/a b`. The 404 body echoes the decoded path,
    // making the decoding observable over the wire.
    with_server(|addr| {
        let (status, body) = get(addr, "/a+b");
        assert_eq!(status, 404);
        assert!(body.contains("no such endpoint: /a+b"), "body: {body}");

        let (status, body) = get(addr, "/a%20b");
        assert_eq!(status, 404);
        assert!(body.contains("no such endpoint: /a b"), "body: {body}");

        // Query values still decode `+` as space.
        let (status, body) = get(addr, "/search?q=airfare+travel&k=2");
        assert_eq!(status, 200, "body: {body}");
        assert!(
            body.contains("\"query\":\"airfare travel\""),
            "body: {body}"
        );
    });
}

#[test]
fn bare_cr_inside_a_line_is_rejected() {
    // Regression: read_line stripped `\r` anywhere, so a CR splicing two
    // logical lines into one parsed as a valid request.
    with_server(|addr| {
        let (status, body) =
            raw_request(addr, "GET /healthz HTTP/1.1\rX-Smuggled: y\r\n\r\n", false);
        assert_eq!(status, 400, "body: {body}");
        assert!(body.contains("bare CR"), "body: {body}");
    });
}

#[test]
fn truncated_request_is_rejected() {
    // Regression: EOF mid-line was treated as a complete line, so a
    // request cut off before its blank-line terminator parsed as valid.
    with_server(|addr| {
        let (status, body) = raw_request(addr, "GET /healthz HTTP/1.1\r\nHost: x", true);
        assert_eq!(status, 400, "body: {body}");
        assert!(body.contains("closed mid-line"), "body: {body}");
    });
}

#[test]
fn exactly_max_headers_is_accepted() {
    // Regression: the header loop counted the terminating blank line
    // against MAX_HEADERS (64), rejecting an exactly-64-header request.
    with_server(|addr| {
        let mut request = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..64 {
            request.push_str(&format!("X-Filler-{i}: v\r\n"));
        }
        request.push_str("\r\n");
        let (status, body) = raw_request(addr, &request, false);
        assert_eq!(status, 200, "body: {body}");

        // One more header is still over the bound.
        let mut request = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..65 {
            request.push_str(&format!("X-Filler-{i}: v\r\n"));
        }
        request.push_str("\r\n");
        let (status, body) = raw_request(addr, &request, false);
        assert_eq!(status, 400, "body: {body}");
        assert!(body.contains("too many headers"), "body: {body}");
    });
}

#[test]
fn method_casing_is_normalized() {
    with_server(|addr| {
        let (status, body) = raw_request(addr, "get /healthz HTTP/1.1\r\n\r\n", false);
        assert_eq!(status, 200, "body: {body}");
        assert_eq!(body, "ok\n");
    });
}

#[test]
fn shared_index_hot_swaps_under_live_traffic() {
    let shared = SharedIndex::new(build_index());
    let server = Server::bind_shared(
        "127.0.0.1:0",
        shared.clone(),
        Obs::disabled(),
        ServeOptions::new().with_workers(2),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));

    let (status, body) = get(addr, "/search?q=submarine");
    assert_eq!(status, 200);
    assert!(body.contains("\"hits\":[]"), "before swap: {body}");

    // Publish a rebuilt index with a ninth page; no restart, no rebind.
    let mut pages: Vec<String> = (0..8)
        .map(|i| {
            let topic = if i % 2 == 0 {
                "airfare travel flights airline"
            } else {
                "careers employment salary resume"
            };
            format!("<p>{topic} database page{i}</p><form><input name=f{i}></form>")
        })
        .collect();
    pages.push("<p>submarine voyages periscope depth</p><form><input name=f8></form>".into());
    let corpus = FormPageCorpus::from_html(
        pages.iter().map(|p| p.as_str()),
        &ModelOptions::default(),
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let partition = Partition::new(
        vec![
            (0..9).filter(|i| i % 2 == 0).collect(),
            (0..9).filter(|i| i % 2 == 1).collect(),
        ],
        9,
    );
    let rebuilt = SearchPipeline::builder()
        .config(SearchConfig::new().with_k(5))
        .build()
        .index(&corpus, Some(&partition));
    shared.replace(rebuilt);

    let (status, body) = get(addr, "/search?q=submarine");
    assert_eq!(status, 200);
    assert!(body.contains("\"doc\":8"), "after swap: {body}");

    handle.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn handle_shutdown_stops_an_idle_server() {
    let server = Server::bind(
        "127.0.0.1:0",
        build_index(),
        Obs::disabled(),
        ServeOptions::new().with_workers(1),
    )
    .expect("bind");
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("run"));
    handle.shutdown();
    runner.join().expect("join");
}
