//! When the client's bytes reach the socket, pinned against a raw
//! `TcpListener` peer standing in for the server: `send` queues,
//! `recv` writes the whole queue in one `write` right before it would
//! block, `call` writes before it blocks, and `reconnect` discards what
//! was queued for the old connection. Also: a response line cut short by
//! EOF is a transport error, which the retry policy survives.

use bpimc_core::{Request, RequestBody, Response, ResponseBody};
use bpimc_server::{Client, ClientError, RetryPolicy};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

fn listen() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port")
}

/// The ids of the request lines one `read` returns.
fn read_ids(conn: &mut TcpStream) -> Vec<u64> {
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut buf = vec![0; 1 << 16];
    let n = conn.read(&mut buf).expect("read requests");
    let text = std::str::from_utf8(&buf[..n]).expect("utf-8");
    assert!(text.ends_with('\n'), "a read ended mid-line: {text:?}");
    text.lines()
        .map(|line| Request::parse(line).expect("request line").id)
        .collect()
}

/// Asserts that the client wrote nothing: a short `read` times out.
fn assert_silent(conn: &mut TcpStream) {
    conn.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("set timeout");
    let err = conn
        .read(&mut [0; 1])
        .expect_err("expected no bytes from the client");
    let kind = err.kind();
    assert!(
        kind == io::ErrorKind::WouldBlock || kind == io::ErrorKind::TimedOut,
        "{err}"
    );
}

fn pong_line(id: u64) -> String {
    Response {
        id,
        body: ResponseBody::Pong,
    }
    .to_json_line()
        + "\n"
}

/// Answers `ids` with pongs, in one `write`.
fn answer(conn: &mut TcpStream, ids: &[u64]) {
    let lines: String = ids.iter().map(|&id| pong_line(id)).collect();
    conn.write_all(lines.as_bytes()).expect("write responses");
}

fn recv_id(client: &mut Client) -> u64 {
    let resp = client.recv().expect("recv");
    assert_eq!(resp.body, ResponseBody::Pong);
    resp.id
}

#[test]
fn sends_are_queued_until_recv_must_wait() {
    let listener = listen();
    let mut client = Client::connect(listener.local_addr().expect("addr")).expect("connect");
    // `step` tells the peer the client got to its next check; `ack`
    // tells the client the peer checked.
    let (step, steps) = mpsc::channel();
    let (ack, acks) = mpsc::channel();
    let peer = thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        steps.recv().expect("16 sends");
        assert_silent(&mut conn);
        ack.send(()).expect("ack");
        // The first recv wrote all 16 in one go.
        assert_eq!(read_ids(&mut conn), (1..=16).collect::<Vec<_>>());
        answer(&mut conn, &[1, 2]);
        steps.recv().expect("a recv from the buffer");
        assert_silent(&mut conn);
        ack.send(()).expect("ack");
        assert_eq!(read_ids(&mut conn), [17]);
        answer(&mut conn, &[3]);
    });

    for id in 1..=16 {
        assert_eq!(client.send(RequestBody::Ping).expect("send"), id);
    }
    step.send(()).expect("step");
    acks.recv().expect("the peer saw nothing");
    assert_eq!(recv_id(&mut client), 1);
    // Response 2 arrived with response 1: this recv must not write 17.
    assert_eq!(client.send(RequestBody::Ping).expect("send"), 17);
    assert_eq!(recv_id(&mut client), 2);
    step.send(()).expect("step");
    acks.recv().expect("the peer saw nothing");
    // This recv must wait, so it writes 17 first.
    assert_eq!(recv_id(&mut client), 3);
    peer.join().expect("peer");
}

#[test]
fn call_writes_its_request_before_it_blocks() {
    let listener = listen();
    let mut client = Client::connect(listener.local_addr().expect("addr")).expect("connect");
    let peer = thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        assert_eq!(read_ids(&mut conn), [1]);
        answer(&mut conn, &[1]);
    });
    let resp = client.call(RequestBody::Ping).expect("call");
    assert_eq!((resp.id, resp.body), (1, ResponseBody::Pong));
    peer.join().expect("peer");
}

#[test]
fn reconnect_discards_the_unsent_queue() {
    let listener = listen();
    let mut client = Client::connect(listener.local_addr().expect("addr")).expect("connect");
    // The peer answers every line on the new connection in order, so a
    // stale line sent there would take the call's response slot; and it
    // returns whatever the old connection received before it closed.
    let peer = thread::spawn(move || {
        let (mut old, _) = listener.accept().expect("accept old");
        let (mut new, _) = listener.accept().expect("accept new");
        let ids = read_ids(&mut new);
        answer(&mut new, &ids);
        old.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        let mut received = Vec::new();
        old.read_to_end(&mut received).expect("old connection");
        received
    });

    assert_eq!(client.send(RequestBody::Ping).expect("send"), 1);
    client.reconnect().expect("reconnect");
    let resp = client.call(RequestBody::Ping).expect("call");
    assert_eq!((resp.id, resp.body), (2, ResponseBody::Pong));
    drop(client);
    let received = peer.join().expect("peer");
    assert!(
        received.is_empty(),
        "the old connection received {:?}",
        String::from_utf8_lossy(&received)
    );
}

/// Accepts one connection, answers its first request with half a
/// response line, and closes it.
fn cut_short(listener: &TcpListener) {
    let (mut conn, _) = listener.accept().expect("accept");
    let ids = read_ids(&mut conn);
    let line = pong_line(ids[0]);
    conn.write_all(&line.as_bytes()[..line.len() / 2])
        .expect("write half a line");
}

#[test]
fn a_response_cut_short_by_eof_is_a_transport_error() {
    let listener = listen();
    let mut client = Client::connect(listener.local_addr().expect("addr")).expect("connect");
    let peer = thread::spawn(move || cut_short(&listener));
    client.send(RequestBody::Ping).expect("send");
    match client.recv() {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
        other => panic!("expected a transport error, got {other:?}"),
    }
    peer.join().expect("peer");
}

#[test]
fn retry_policy_reconnects_after_a_response_cut_short() {
    let listener = listen();
    let mut client = Client::connect(listener.local_addr().expect("addr")).expect("connect");
    let peer = thread::spawn(move || {
        cut_short(&listener);
        let (mut conn, _) = listener.accept().expect("accept second");
        let ids = read_ids(&mut conn);
        answer(&mut conn, &ids);
    });
    client.set_retry_policy(Some(RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(1),
    }));
    client
        .ping()
        .expect("ping succeeds on the second connection");
    assert_eq!(client.reconnects(), 1);
    peer.join().expect("peer");
}
