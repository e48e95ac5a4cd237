//! A blocking client for the front-end protocol, with explicit
//! send/recv halves so callers can pipeline.

use crate::wire::{self, FrameError, FrameReader, Request, RequestBody, Response, WireLane};
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's frame or payload could not be decoded.
    Frame(FrameError),
    /// The server closed the connection at a frame boundary.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Frame(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Frame(other),
        }
    }
}

/// A blocking protocol client over one TCP connection.
///
/// [`FrontClient::send`] and [`FrontClient::recv`] are independent, so a
/// caller can keep several requests in flight; the server answers in
/// submission order per connection.
pub struct FrontClient {
    stream: TcpStream,
    max_frame_bytes: usize,
    /// Responses arrive through one buffer: a server that answered several
    /// pipelined requests at once is read with one system call.
    frames: FrameReader,
    /// The outgoing frame and its encoding scratch, kept between sends.
    out: Vec<u8>,
    json: String,
}

impl FrontClient {
    /// Connects to a front-end.
    ///
    /// # Errors
    /// Connection I/O errors.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(FrontClient {
            stream,
            // Generous client-side bound; the server enforces its own.
            max_frame_bytes: 64 << 20,
            frames: FrameReader::default(),
            out: Vec::new(),
            json: String::new(),
        })
    }

    /// Sends one request without waiting for the response.
    ///
    /// # Errors
    /// Transport errors.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.out.clear();
        wire::append_frame(&mut self.out, &mut self.json, req)?;
        self.stream.write_all(&self.out)?;
        Ok(())
    }

    /// Receives the next response.
    ///
    /// # Errors
    /// [`ClientError::Closed`] on clean EOF, transport/protocol errors
    /// otherwise.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match self.frames.next_frame(&mut self.stream, self.max_frame_bytes)? {
            Some(payload) => Ok(wire::decode_response(payload)?),
            None => Err(ClientError::Closed),
        }
    }

    /// Sends one request and waits for one response — correct only when
    /// no other request is in flight on this connection.
    ///
    /// # Errors
    /// See [`FrontClient::send`] and [`FrontClient::recv`].
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv()
    }

    /// Liveness/metadata probe (the ordering tests' idle-connection
    /// check).
    ///
    /// # Errors
    /// See [`FrontClient::call`].
    pub fn ping(&mut self, id: u64) -> Result<Response, ClientError> {
        self.call(&Request {
            id,
            lane: WireLane::Interactive,
            deadline_us: None,
            body: RequestBody::Ping,
        })
    }

    /// Uploads graphs into this connection's slot pool.
    ///
    /// # Errors
    /// See [`FrontClient::call`].
    pub fn load_pool(
        &mut self,
        id: u64,
        base_slot: u32,
        graphs: Vec<costream::graph::JointGraph>,
    ) -> Result<Response, ClientError> {
        self.call(&Request {
            id,
            lane: WireLane::Interactive,
            deadline_us: None,
            body: RequestBody::LoadPool { base_slot, graphs },
        })
    }

    /// The underlying stream — for tests that need to misbehave at the
    /// byte level.
    #[doc(hidden)]
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
