//! Daemon robustness over real sockets: a request that cannot run gets
//! a terminal `error` event, its connection keeps answering, and its
//! admission slot is returned, so a daemon with one execution slot
//! still serves the next valid job.
//!
//! The client here sets a read timeout: a leaked slot shows up as a
//! failed test, not a hung one.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use lobist_server::{proto::is_terminal_event, Server, ServerConfig};

const DESIGN: &str = "input a b c d\n\
                      s1 = a + b @ 1\n\
                      s2 = c + d @ 2\n\
                      y = s1 * s2 @ 3\n\
                      output y\n";

/// One persistent connection with a read timeout.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Conn {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request line and reads events up to the terminal one;
    /// `Err` when the stream closes or times out first.
    fn send(&mut self, line: &str) -> Result<Vec<String>, String> {
        writeln!(self.writer, "{line}").map_err(|e| e.to_string())?;
        let mut events = Vec::new();
        loop {
            let mut event = String::new();
            match self.reader.read_line(&mut event) {
                Ok(0) => return Err(format!("connection closed after {events:?}")),
                Ok(_) => {}
                Err(e) => return Err(format!("no terminal event after {events:?}: {e}")),
            }
            let terminal = is_terminal_event(&event);
            events.push(event.trim_end().to_owned());
            if terminal {
                return Ok(events);
            }
        }
    }

    fn request(&mut self, line: &str) -> Vec<String> {
        self.send(line).unwrap_or_else(|e| panic!("{line}: {e}"))
    }
}

fn job(cmd: &str, design: &str) -> String {
    format!(
        r#"{{"cmd":"{cmd}","design":"{}","modules":"1+,1*"}}"#,
        lobist_server::json::escape(design)
    )
}

fn start(config: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.tcp_addr().expect("tcp enabled").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn stop(addr: &str, thread: std::thread::JoinHandle<std::io::Result<()>>) {
    let events = Conn::open(addr).request(r#"{"cmd":"shutdown"}"#);
    assert!(events[0].contains("\"event\":\"shutdown\""), "{events:?}");
    thread.join().expect("run thread").expect("clean shutdown");
}

#[test]
fn an_empty_design_is_an_error_event_and_the_connection_still_answers() {
    let (addr, thread) = start(ServerConfig::default());
    let mut conn = Conn::open(&addr);
    for cmd in ["synth", "anneal", "faultsim", "lint", "analyze"] {
        for design in ["", "input a\noutput a\n"] {
            let events = conn.request(&job(cmd, design));
            let last = events.last().expect("terminal event");
            assert!(last.contains("\"event\":\"error\""), "{cmd}: {events:?}");
            assert!(last.contains("design has no operations"), "{cmd}: {last}");
        }
    }
    let explore = conn.request(r#"{"cmd":"explore","design":"","candidates":"1+,1*"}"#);
    assert!(
        explore[explore.len() - 1].contains("design has no operations"),
        "{explore:?}"
    );
    assert!(conn.request(r#"{"cmd":"ping"}"#)[0].contains("\"event\":\"pong\""));
    let synth = conn.request(&job("synth", DESIGN));
    assert!(synth.iter().any(|e| e.contains("\"point\":{")), "{synth:?}");
    // The failures are counted as failed requests, not rejections.
    let metrics = conn.request(r#"{"cmd":"metrics"}"#);
    assert!(metrics[0].contains("\"failed\":11"), "{metrics:?}");
    stop(&addr, thread);
}

#[test]
fn failing_jobs_release_their_admission_slot() {
    let (addr, thread) = start(ServerConfig {
        max_active: 1,
        ..ServerConfig::default()
    });
    // Each failing request runs on its own connection. Whatever they
    // answer, the one slot must be free again for the valid job.
    for cmd in ["lint", "analyze"] {
        let _ = Conn::open(&addr).send(&job(cmd, ""));
    }
    let events = Conn::open(&addr).request(&job("synth", DESIGN));
    assert!(
        events.iter().any(|e| e.contains("\"event\":\"done\"")),
        "{events:?}"
    );
    assert!(
        events.iter().any(|e| e.contains("\"point\":{")),
        "{events:?}"
    );
    stop(&addr, thread);
}
