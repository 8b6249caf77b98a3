//! The daemon's request-size cap: a client that sends a line longer than
//! `MAX_REQUEST_BYTES` (here 1 MiB with no newline at all) gets one
//! error frame and a closed connection, and the daemon keeps serving the
//! next connection.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;

use wp_serve::listener::MAX_REQUEST_BYTES;
use wp_serve::{Client, Request, ServeConfig, Server};

#[test]
fn oversize_line_gets_an_error_frame_and_the_daemon_keeps_serving() {
    let base = std::env::temp_dir().join(format!("wp-serve-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let socket = base.join("wp.sock");
    let mut config = ServeConfig::new(&socket);
    config.cache_dir = base.join("cache");
    config.state_dir = base.join("state");
    config.workers = 1;
    let server = Server::bind(&config).expect("bind daemon");
    let shutdown = server.shutdown_flag();
    let daemon = std::thread::spawn(move || server.run());

    let mut stream = UnixStream::connect(&socket).expect("connect");
    // The daemon stops reading at the cap and closes, so the tail of
    // this write may fail with a broken pipe; the frame is already
    // queued for us either way.
    let _ = stream.write_all(&vec![b'x'; 1 << 20]);
    let mut frame = String::new();
    let mut reader = BufReader::new(stream);
    reader.read_line(&mut frame).expect("read the error frame");
    assert!(frame.contains("\"type\":\"error\""), "frame: {frame}");
    assert!(
        frame.contains(&format!("exceeds {MAX_REQUEST_BYTES} bytes")),
        "frame: {frame}"
    );
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).unwrap_or(0),
        0,
        "the connection must close after the error frame, got {rest:?}"
    );

    let status = Client::connect(&socket)
        .expect("second connection")
        .call(&Request::Status)
        .expect("status");
    assert!(status.contains("\"type\":\"status\""), "status: {status}");

    shutdown.store(true, Ordering::SeqCst);
    daemon.join().expect("daemon thread").expect("daemon run");
    let _ = std::fs::remove_dir_all(&base);
}
