//! One client connection: a bounded-line reader loop, and an outbound
//! frame buffer ([`Outbox`]) drained by a dedicated writer thread.
//!
//! The outbox is the server's backpressure valve, mirroring
//! [`telemetry::EventRing`]: when a client stops reading, the writer
//! thread blocks in `write` and the buffer fills; once it holds
//! `outbuf_cap` row frames the *oldest row* is dropped (and counted)
//! to admit the new one. Control frames (`ack`/`busy`/`done`/`error`/
//! `pong`) are never dropped — a slow reader loses telemetry rows, not
//! job outcomes.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use super::listener::ServerShared;
use super::protocol::{
    busy_frame, error_frame, json_str_field, parse_request, pong_frame, Request, MAX_LINE_BYTES,
};
use super::scheduler::Job;
use crate::parallel::recover;

struct OutboxState {
    /// `(is_control, frame)` in send order.
    frames: VecDeque<(bool, String)>,
    /// Row frames currently queued (the bounded population).
    rows_queued: usize,
    /// Row frames dropped to the bound, cumulative for the session.
    dropped: u64,
    /// No more frames will be accepted or drained.
    closed: bool,
}

/// The bounded outbound frame buffer of one session.
#[derive(Debug)]
pub struct Outbox {
    cap: usize,
    state: Mutex<OutboxState>,
    ready: Condvar,
}

impl std::fmt::Debug for OutboxState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutboxState")
            .field("queued", &self.frames.len())
            .field("dropped", &self.dropped)
            .field("closed", &self.closed)
            .finish()
    }
}

impl Outbox {
    /// An empty outbox admitting at most `cap` row frames (min 1).
    pub fn new(cap: usize) -> Outbox {
        Outbox {
            cap: cap.max(1),
            state: Mutex::new(OutboxState {
                frames: VecDeque::new(),
                rows_queued: 0,
                dropped: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Queues a row frame, evicting (and counting) the oldest queued
    /// row if the buffer is at capacity — the [`telemetry::EventRing`]
    /// overwrite-oldest policy. No-op after [`Outbox::close`].
    pub fn push_row(&self, frame: String) {
        let mut s = recover(self.state.lock());
        if s.closed {
            return;
        }
        if s.rows_queued >= self.cap {
            if let Some(pos) = s.frames.iter().position(|(control, _)| !control) {
                s.frames.remove(pos);
                s.rows_queued -= 1;
                s.dropped += 1;
            }
        }
        s.frames.push_back((false, frame));
        s.rows_queued += 1;
        drop(s);
        self.ready.notify_one();
    }

    /// Queues a control frame (never dropped). No-op after close.
    pub fn push_control(&self, frame: String) {
        let mut s = recover(self.state.lock());
        if s.closed {
            return;
        }
        s.frames.push_back((true, frame));
        drop(s);
        self.ready.notify_one();
    }

    /// Row frames dropped so far (session-cumulative).
    pub fn dropped(&self) -> u64 {
        recover(self.state.lock()).dropped
    }

    /// Stops accepting frames and wakes the writer to drain and exit.
    pub fn close(&self) {
        recover(self.state.lock()).closed = true;
        self.ready.notify_all();
    }

    /// Blocks for the next frame; `None` once closed and drained.
    pub fn pop(&self) -> Option<String> {
        let mut s = recover(self.state.lock());
        loop {
            if let Some((control, frame)) = s.frames.pop_front() {
                if !control {
                    s.rows_queued -= 1;
                }
                return Some(frame);
            }
            if s.closed {
                return None;
            }
            s = recover(self.ready.wait(s));
        }
    }
}

/// One bounded read from the request stream.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete line within [`MAX_LINE_BYTES`].
    Line(String),
    /// The line exceeded the cap; its bytes were discarded up to the
    /// next newline.
    Oversized,
}

/// Reads one newline-terminated frame without ever buffering more than
/// [`MAX_LINE_BYTES`] of it. `Ok(None)` is end-of-stream.
pub fn read_frame(reader: &mut impl BufRead) -> std::io::Result<Option<FrameRead>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            if buf.is_empty() && !oversized {
                return Ok(None);
            }
            break;
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !oversized {
                    buf.extend_from_slice(&available[..pos]);
                }
                reader.consume(pos + 1);
                break;
            }
            None => {
                let n = available.len();
                if !oversized {
                    buf.extend_from_slice(available);
                }
                reader.consume(n);
                if buf.len() > MAX_LINE_BYTES {
                    oversized = true;
                    buf.clear();
                }
            }
        }
    }
    if oversized || buf.len() > MAX_LINE_BYTES {
        return Ok(Some(FrameRead::Oversized));
    }
    Ok(Some(FrameRead::Line(
        String::from_utf8_lossy(&buf).into_owned(),
    )))
}

/// Drains `outbox` onto the socket until the outbox closes or a write
/// fails (client gone — the outbox is closed so producers stop
/// queueing).
fn writer_loop(mut stream: TcpStream, outbox: Arc<Outbox>) {
    while let Some(mut frame) = outbox.pop() {
        frame.push('\n');
        if stream.write_all(frame.as_bytes()).is_err() {
            outbox.close();
            break;
        }
    }
}

/// Runs one session to completion: spawns the writer, then loops over
/// request frames. Every malformed input becomes an `error` frame —
/// this loop must never panic or kill the server on hostile bytes.
pub(crate) fn run_session(stream: TcpStream, shared: Arc<ServerShared>, conn_id: u64) {
    let outbox = Arc::new(Outbox::new(shared.opts.outbuf_cap));
    let writer = match stream.try_clone() {
        Ok(w) => {
            let ob = outbox.clone();
            thread::spawn(move || writer_loop(w, ob))
        }
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader) {
            Err(_) | Ok(None) => break,
            Ok(Some(FrameRead::Oversized)) => {
                shared.note_protocol_error();
                outbox.push_control(error_frame(
                    None,
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                ));
            }
            Ok(Some(FrameRead::Line(line))) => match parse_request(&line) {
                Err(msg) => {
                    shared.note_protocol_error();
                    let id = json_str_field(&line, "id");
                    outbox.push_control(error_frame(id.as_deref(), &msg));
                }
                Ok(Request::Ping) => outbox.push_control(pong_frame()),
                Ok(Request::Submit(request)) => {
                    let tenant = request
                        .tenant
                        .clone()
                        .unwrap_or_else(|| format!("conn-{conn_id}"));
                    let id = request.id.clone();
                    let job = Job {
                        request,
                        outbox: outbox.clone(),
                    };
                    // `submit` queues the ack itself (under the
                    // scheduler lock) so no worker can stream a row
                    // before the ack is in the outbox.
                    if let Err((queued, cap)) = shared.scheduler.submit(&tenant, job) {
                        outbox.push_control(busy_frame(&id, queued, cap));
                    }
                }
            },
        }
    }
    outbox.close();
    let _ = writer.join();
}

#[cfg(test)]
mod tests {
    use super::super::protocol::ack_frame;
    use super::*;
    use std::io::Cursor;

    #[test]
    fn outbox_drops_oldest_rows_but_never_control_frames() {
        let ob = Outbox::new(2);
        ob.push_control(ack_frame("j"));
        ob.push_row("r0".into());
        ob.push_row("r1".into());
        ob.push_row("r2".into()); // evicts r0
        ob.push_control("done".into());
        assert_eq!(ob.dropped(), 1);
        ob.close();
        let drained: Vec<String> = std::iter::from_fn(|| ob.pop()).collect();
        assert_eq!(
            drained,
            vec![ack_frame("j"), "r1".into(), "r2".into(), "done".into()]
        );
    }

    #[test]
    fn outbox_close_unblocks_and_rejects_new_frames() {
        let ob = Arc::new(Outbox::new(4));
        let ob2 = ob.clone();
        let t = thread::spawn(move || ob2.pop());
        thread::sleep(std::time::Duration::from_millis(20));
        ob.close();
        assert_eq!(t.join().unwrap(), None);
        ob.push_row("late".into());
        ob.push_control("late".into());
        assert_eq!(ob.pop(), None);
    }

    #[test]
    fn read_frame_bounds_the_line_and_recovers() {
        let long = "x".repeat(MAX_LINE_BYTES * 3);
        let input = format!("short\n{long}\nafter\n");
        let mut r = Cursor::new(input.into_bytes());
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some(FrameRead::Line("short".into()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), Some(FrameRead::Oversized));
        // The oversized line was consumed exactly to its newline.
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some(FrameRead::Line("after".into()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn read_frame_handles_eof_without_trailing_newline() {
        let mut r = Cursor::new(b"tail".to_vec());
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some(FrameRead::Line("tail".into()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }
}
