//! Framed TCP connections: a [`connection_pair`] whose far end is bridged
//! to a socket.
//!
//! Both ends share one shape: the socket is owned by two dedicated threads
//! (one reading, one writing) that stand in for the peer on the far end of
//! the pair, so no lock is ever held across socket I/O and the caller gets
//! the same [`Connection`] / [`ServerEnd`] an in-process link has.
//!
//! ```text
//!  client                                        server
//!  ──────                                        ──────
//!  send() ──▶ [bounded queue] ──▶ writer thread  reader thread ──▶ [bounded queue] ──▶ recv()
//!                                     │ frames      │ frames
//!                                     ▼             ▲
//!                                 TCP socket ═══════╝
//!  recv() ◀── [queue] ◀── reader thread         writer thread ◀── [bounded queue] ◀── send()
//! ```
//!
//! Backpressure is structural, not advisory:
//!
//! * A **client** whose peer stops draining fills its bounded send queue, at
//!   which point [`Connection::send`] blocks (and the socket's own buffers
//!   push back on the writer thread).
//! * A **client** that stops consuming replies fills its bounded reply
//!   queue; the reader thread blocks, stops reading the socket, and closes
//!   the kernel receive window back to the server.
//! * A **server** whose handler falls behind stops pulling from its bounded
//!   inbound queue; the reader thread blocks feeding it and stops reading
//!   the socket, so the kernel's receive window closes and the client's
//!   writes stall. Slow consumers slow *their* connection only.
//!
//! Any socket error, EOF, or [`crate::protocol::CodecError`] tears the
//! connection down: both threads exit, the socket is shut down, and every
//! queued operation surfaces [`crate::wire::ConnectionClosed`].

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

use bytes::BytesMut;
use crossbeam::channel::{Receiver, Sender};

use crate::protocol::{encode_reply, encode_request, CodecError, FrameDecoder};
use crate::wire::{connection_pair, Connection, ServerEnd};

// Historically defined here; now shared with the in-process transport so
// both exhibit the same backpressure envelope.
pub use crate::wire::SEND_QUEUE_DEPTH;

/// Bytes pulled from the socket per `read` call.
const READ_BUF_BYTES: usize = 64 * 1024;

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .map(|_| ())
}

/// Drains `rx`, encodes each message with `encode`, and writes frames to
/// the socket. Exits (shutting the socket down) on channel disconnect or
/// write error.
fn write_pump<T>(stream: TcpStream, rx: Receiver<T>, encode: impl Fn(&T, &mut BytesMut)) {
    let mut stream = stream;
    let mut out = BytesMut::new();
    while let Ok(msg) = rx.recv() {
        out.clear();
        encode(&msg, &mut out);
        // Coalesce whatever else is already queued into the same syscall —
        // this is where client-side append pipelining turns into large
        // writes instead of one syscall per event.
        while out.len() < READ_BUF_BYTES {
            match rx.try_recv() {
                Ok(next) => encode(&next, &mut out),
                Err(_) => break,
            }
        }
        if stream.write_all(out.as_slice()).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads the socket, feeds the frame decoder, and forwards each decoded
/// message into `tx`. A full `tx` blocks here, which stops the socket reads:
/// the kernel receive window closes and the peer stalls. Exits (shutting the
/// socket down) on EOF, read error, codec error, or when the receiving end
/// of `tx` hung up.
fn read_pump<T>(
    stream: TcpStream,
    mut next: impl FnMut(&mut FrameDecoder) -> Result<Option<T>, CodecError>,
    tx: Sender<T>,
) {
    let mut stream = stream;
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; READ_BUF_BYTES];
    'io: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let Some(read) = buf.get(..n) else { break };
        decoder.feed(read);
        loop {
            match next(&mut decoder) {
                Ok(Some(msg)) => {
                    if tx.send(msg).is_err() {
                        break 'io;
                    }
                }
                Ok(None) => break,
                // Unframed stream: nothing downstream is trustworthy.
                Err(_) => break 'io,
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Opens a framed TCP connection to a segment store frontend.
///
/// The returned [`Connection`] behaves identically to an embedded one; the
/// caller cannot tell (and must not care) which transport backs it.
///
/// # Errors
///
/// Any I/O error from connecting or configuring the socket.
pub fn connect(addr: SocketAddr) -> std::io::Result<Connection> {
    let stream = TcpStream::connect(addr)?;
    connect_stream(stream)
}

/// Wraps an already-connected socket in a client [`Connection`] (used by
/// tests that need to hold the raw fd, e.g. to sever it mid-flight). The
/// pumps play the server end of the pair: the writer sends its requests,
/// the reader delivers the socket's replies.
///
/// # Errors
///
/// Any I/O error from configuring the socket or spawning pump threads.
pub fn connect_stream(stream: TcpStream) -> std::io::Result<Connection> {
    stream.set_nodelay(true)?;
    let (conn, far) = connection_pair();
    let writer_stream = stream.try_clone()?;
    spawn_named("tcp-cli-writer", move || {
        write_pump(writer_stream, far.requests, encode_request);
    })?;
    spawn_named("tcp-cli-reader", move || {
        read_pump(stream, FrameDecoder::next_reply, far.replies);
    })?;
    Ok(conn)
}

/// Wraps an accepted socket in a [`ServerEnd`]: requests flow out of
/// [`ServerEnd::recv`], replies flow into [`ServerEnd::send`]. The pumps play
/// the client end of the pair: the reader sends the socket's requests, the
/// writer drains the replies.
///
/// # Errors
///
/// Any I/O error from configuring the socket or spawning pump threads.
pub fn serve_stream(stream: TcpStream) -> std::io::Result<ServerEnd> {
    stream.set_nodelay(true)?;
    let (far, server) = connection_pair();
    let writer_stream = stream.try_clone()?;
    spawn_named("tcp-srv-writer", move || {
        write_pump(writer_stream, far.replies, encode_reply);
    })?;
    spawn_named("tcp-srv-reader", move || {
        read_pump(stream, FrameDecoder::next_request, far.requests);
    })?;
    Ok(server)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ScopedStream, SegmentId};
    use crate::wire::{ConnectionClosed, Reply, ReplyEnvelope, Request, RequestEnvelope};
    use std::net::TcpListener;

    fn seg() -> crate::id::ScopedSegment {
        ScopedStream::new("s", "t")
            .unwrap()
            .segment(SegmentId::new(0, 7))
    }

    #[test]
    fn request_and_reply_cross_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let server = serve_stream(sock).unwrap();
            let req = server.recv().unwrap();
            assert_eq!(req.request_id, 42);
            assert!(matches!(req.request, Request::GetSegmentInfo { .. }));
            server
                .send(ReplyEnvelope {
                    request_id: req.request_id,
                    reply: Reply::NoSuchSegment,
                })
                .unwrap();
        });
        let conn = connect(addr).unwrap();
        let reply = conn
            .call(42, Request::GetSegmentInfo { segment: seg() })
            .unwrap();
        assert_eq!(reply, Reply::NoSuchSegment);
        srv.join().unwrap();
    }

    #[test]
    fn severed_socket_surfaces_connection_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conn = connect(addr).unwrap();
        let (sock, _) = listener.accept().unwrap();
        drop(sock);
        // The reader notices EOF; every blocked and future op must fail.
        let err = conn.recv();
        assert_eq!(err, Err(ConnectionClosed));
    }

    #[test]
    fn pipelined_requests_keep_their_ids_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let server = serve_stream(sock).unwrap();
            for _ in 0..50 {
                let req = server.recv().unwrap();
                server
                    .send(ReplyEnvelope {
                        request_id: req.request_id,
                        reply: Reply::SegmentCreated,
                    })
                    .unwrap();
            }
        });
        let conn = connect(addr).unwrap();
        for id in 0..50u64 {
            conn.send(RequestEnvelope {
                request_id: id,
                request: Request::CreateSegment {
                    segment: seg(),
                    is_table: false,
                },
            })
            .unwrap();
        }
        let mut seen: Vec<u64> = (0..50).map(|_| conn.recv().unwrap().request_id).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        srv.join().unwrap();
    }
}
