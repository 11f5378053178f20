//! Client side of the serve protocol: a low-level [`ServeClient`] for
//! single requests and a [`RemotePredictor`] that reproduces
//! [`InferSession::predict_frame`] over the network, bit for bit.
//!
//! Bit-identity is by construction, not luck: the predictor crops
//! windows with the *same* [`zipnet_core::pipeline::crop_coarse`]
//! routine, the daemon replays the *same* shared plan with per-sample
//! batched kernels, and reassembly feeds the *same* origin order through
//! a [`ReassemblePlan`] — the f64 accumulation order (the only
//! order-sensitive arithmetic in the path) is therefore identical to a
//! local run at any worker count or batch grouping.
//!
//! [`InferSession::predict_frame`]: zipnet_core::pipeline::InferSession

use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mtsr_tensor::Tensor;
use mtsr_traffic::augment::ReassemblePlan;
use zipnet_core::pipeline::crop_coarse;

use crate::protocol::{
    read_response, write_request, InferRequest, InferResponse, Opcode, ReloadRequest, RespStatus,
    Response, ServerInfo, TruthAck, TruthRequest,
};

/// Terminal outcome of one INFER request.
#[derive(Debug, Clone, PartialEq)]
pub enum InferOutcome {
    /// Served; carries the fine-grained window.
    Ok(InferResponse),
    /// Shed at admission — the queue was full. Retry later.
    Busy,
    /// Admitted but expired in the queue before execution.
    Timeout,
    /// The daemon is draining and admits nothing new.
    Draining,
    /// Rejected or failed; carries the server's message.
    Err(String),
}

/// A blocking protocol client over one TCP connection. Requests carry
/// client-chosen ids, so callers may pipeline via [`send_infer`] /
/// [`recv`] and match replies by id.
///
/// [`send_infer`]: ServeClient::send_infer
/// [`recv`]: ServeClient::recv
pub struct ServeClient {
    stream: TcpStream,
    next_id: u64,
}

impl ServeClient {
    /// Connects to a serving daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(ServeClient { stream, next_id: 0 })
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// The id the most recent single-shot request (e.g. [`infer`]) went
    /// out under — what a later [`truth`] submission must reuse to pair
    /// with that prediction.
    ///
    /// [`infer`]: ServeClient::infer
    /// [`truth`]: ServeClient::truth
    pub fn last_id(&self) -> u64 {
        self.next_id
    }

    fn roundtrip(&mut self, op: Opcode, payload: &[u8]) -> io::Result<Response> {
        let id = self.fresh_id();
        write_request(&mut self.stream, op, id, payload)?;
        let resp = read_response(&mut self.stream)?;
        if resp.id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {} for request id {id}", resp.id),
            ));
        }
        Ok(resp)
    }

    /// Fetches the daemon's planned geometry for model 0.
    pub fn info(&mut self) -> io::Result<ServerInfo> {
        self.info_for(0)
    }

    /// Fetches the planned geometry of one registered model.
    pub fn info_for(&mut self, model: u32) -> io::Result<ServerInfo> {
        let resp = self.roundtrip(Opcode::Info, &model.to_le_bytes())?;
        expect_ok(&resp, "INFO")?;
        ServerInfo::decode(&resp.payload)
    }

    /// Asks the daemon to hot-reload one model from `source` (empty =
    /// the model's recorded checkpoint source). Blocks until the swap
    /// completes; returns the new plan generation.
    pub fn reload(&mut self, model: u32, source: &str) -> io::Result<u32> {
        let payload = ReloadRequest {
            model,
            source: source.to_string(),
        }
        .encode();
        let resp = self.roundtrip(Opcode::Reload, &payload)?;
        expect_ok(&resp, "RELOAD")?;
        if resp.payload.len() != 4 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "RELOAD reply should carry the 4-byte new generation",
            ));
        }
        Ok(u32::from_le_bytes([
            resp.payload[0],
            resp.payload[1],
            resp.payload[2],
            resp.payload[3],
        ]))
    }

    /// Fetches the plaintext status report.
    pub fn status(&mut self) -> io::Result<String> {
        let resp = self.roundtrip(Opcode::Status, &[])?;
        expect_ok(&resp, "STATUS")?;
        String::from_utf8(resp.payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Asks the daemon to drain gracefully.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let resp = self.roundtrip(Opcode::Shutdown, &[])?;
        expect_ok(&resp, "SHUTDOWN")
    }

    /// Submits one window and waits for its terminal reply.
    pub fn infer(&mut self, req: &InferRequest) -> io::Result<InferOutcome> {
        let resp = self.roundtrip(Opcode::Infer, &req.encode())?;
        outcome_of(resp)
    }

    /// Pipelining half: submits one window under a caller-chosen id
    /// without waiting.
    pub fn send_infer(&mut self, id: u64, req: &InferRequest) -> io::Result<()> {
        write_request(&mut self.stream, Opcode::Infer, id, &req.encode())
    }

    /// Submits the later-arriving fine-grained ground truth for the
    /// earlier `INFER` whose id was `infer_id` (see
    /// [`last_id`](ServeClient::last_id), or the caller-chosen id from
    /// [`send_infer`](ServeClient::send_infer)). Returns `Some(ack)`
    /// when the daemon still held that prediction and scored the pair,
    /// `None` when it was unmatched (late, evicted, or never served).
    pub fn truth(&mut self, infer_id: u64, req: &TruthRequest) -> io::Result<Option<TruthAck>> {
        write_request(&mut self.stream, Opcode::Truth, infer_id, &req.encode())?;
        let resp = read_response(&mut self.stream)?;
        if resp.id != infer_id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {} for TRUTH request id {infer_id}", resp.id),
            ));
        }
        expect_ok(&resp, "TRUTH")?;
        if resp.payload.is_empty() {
            Ok(None)
        } else {
            TruthAck::decode(&resp.payload).map(Some)
        }
    }

    /// Pipelining half: receives the next reply, whichever request it
    /// answers (the daemon replies in completion order).
    pub fn recv(&mut self) -> io::Result<(u64, InferOutcome)> {
        let resp = read_response(&mut self.stream)?;
        let id = resp.id;
        Ok((id, outcome_of(resp)?))
    }
}

fn expect_ok(resp: &Response, what: &str) -> io::Result<()> {
    if resp.status == RespStatus::Ok {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "{what} answered {:?}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.payload)
        )))
    }
}

fn outcome_of(resp: Response) -> io::Result<InferOutcome> {
    Ok(match resp.status {
        RespStatus::Ok => InferOutcome::Ok(InferResponse::decode(&resp.payload)?),
        RespStatus::Busy => InferOutcome::Busy,
        RespStatus::Timeout => InferOutcome::Timeout,
        RespStatus::Draining => InferOutcome::Draining,
        RespStatus::Err => InferOutcome::Err(String::from_utf8_lossy(&resp.payload).into_owned()),
    })
}

/// Full-frame prediction over the wire: crops the same sliding windows a
/// local [`zipnet_core::pipeline::InferSession`] would, streams them to
/// the daemon with bounded in-flight pipelining (retrying `BUSY` and
/// `TIMEOUT` — both are explicit load-shedding, not failures), and
/// reassembles replies in origin order for a bit-identical frame.
pub struct RemotePredictor {
    client: ServeClient,
    model: u32,
    info: ServerInfo,
    probe: usize,
    origins: Vec<(usize, usize)>,
    plan: ReassemblePlan,
    max_inflight: usize,
    retry_pause: Duration,
}

impl RemotePredictor {
    /// Builds a predictor from the fine-grid geometry of the frame being
    /// reconstructed: `origins` and `window` exactly as reported by the
    /// local session ([`InferSession::origins`] / [`InferSession::window`]),
    /// `grid` the fine frame side and `probe` the upscale factor. Fetches
    /// the daemon's [`ServerInfo`] and checks it matches the geometry.
    ///
    /// [`InferSession::origins`]: zipnet_core::pipeline::InferSession::origins
    /// [`InferSession::window`]: zipnet_core::pipeline::InferSession::window
    pub fn new(
        client: ServeClient,
        origins: Vec<(usize, usize)>,
        window: usize,
        grid: usize,
        probe: usize,
    ) -> io::Result<RemotePredictor> {
        RemotePredictor::for_model(client, 0, origins, window, grid, probe)
    }

    /// Like [`new`](Self::new) but routed to one tenant of a
    /// multi-model daemon: geometry is validated against — and every
    /// request stamped with — `model`.
    pub fn for_model(
        mut client: ServeClient,
        model: u32,
        origins: Vec<(usize, usize)>,
        window: usize,
        grid: usize,
        probe: usize,
    ) -> io::Result<RemotePredictor> {
        let info = client.info_for(model)?;
        let cw = window / probe;
        if info.h as usize != cw || info.w as usize != cw || info.out_h as usize != window {
            return Err(io::Error::other(format!(
                "daemon serves [{}, {}, {}] -> [{}, {}], local geometry wants \
                 [S, {cw}, {cw}] -> [{window}, {window}]",
                info.s, info.h, info.w, info.out_h, info.out_w
            )));
        }
        let plan = ReassemblePlan::new(&origins, window, grid)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let max_inflight = (info.queue_cap as usize).clamp(1, 8);
        Ok(RemotePredictor {
            client,
            model,
            info,
            probe,
            origins,
            plan,
            max_inflight,
            retry_pause: Duration::from_millis(2),
        })
    }

    /// The daemon geometry this predictor validated against.
    pub fn info(&self) -> &ServerInfo {
        &self.info
    }

    /// Caps concurrently outstanding requests (min 1). Keeping this at or
    /// below the daemon's queue capacity avoids guaranteed `BUSY` churn.
    pub fn set_max_inflight(&mut self, n: usize) {
        self.max_inflight = n.max(1);
    }

    /// Gives the connection back (e.g. to send SHUTDOWN afterwards).
    pub fn into_client(self) -> ServeClient {
        self.client
    }

    /// Predicts the full fine-grained frame from a normalized coarse
    /// stack `[S, sq, sq]`, row-major — the remote counterpart of
    /// [`InferSession::predict_frame`], bit-identical for equal inputs.
    ///
    /// [`InferSession::predict_frame`]: zipnet_core::pipeline::InferSession::predict_frame
    pub fn predict_frame(&mut self, coarse: &[f32], sq: usize) -> io::Result<Tensor> {
        let (s, cw) = (self.info.s as usize, self.info.h as usize);
        // Origins and reassembly divisors are fixed for one grid.
        let planned_sq = self.plan.grid() / self.probe;
        if coarse.len() != s * sq * sq || sq != planned_sq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "coarse stack of {} values does not match [S={s}, sq={sq}] \
                     (planned sq={planned_sq})",
                    coarse.len()
                ),
            ));
        }
        let win_len = (self.info.out_h * self.info.out_w) as usize;
        let mut results: Vec<Option<Vec<f32>>> = vec![None; self.origins.len()];
        let mut to_send: VecDeque<usize> = (0..self.origins.len()).collect();
        let mut crop = vec![0.0f32; s * cw * cw];
        let mut inflight = 0usize;
        let mut done = 0usize;

        while done < self.origins.len() {
            while inflight < self.max_inflight {
                let Some(i) = to_send.pop_front() else { break };
                let (y0, x0) = self.origins[i];
                crop_coarse(
                    coarse,
                    s,
                    sq,
                    (y0 / self.probe, x0 / self.probe),
                    cw,
                    &mut crop,
                );
                let req = InferRequest {
                    model: self.model,
                    deadline_ms: 0,
                    s: self.info.s,
                    h: self.info.h,
                    w: self.info.w,
                    data: crop.clone(),
                };
                self.client.send_infer(i as u64, &req)?;
                inflight += 1;
            }
            let (id, outcome) = self.client.recv()?;
            inflight -= 1;
            let i = id as usize;
            if i >= self.origins.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("daemon answered unknown request id {id}"),
                ));
            }
            match outcome {
                InferOutcome::Ok(resp) => {
                    if resp.data.len() != win_len || results[i].is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("malformed or duplicate reply for window {i}"),
                        ));
                    }
                    results[i] = Some(resp.data);
                    done += 1;
                }
                // Explicit shedding: back off briefly and resubmit.
                InferOutcome::Busy | InferOutcome::Timeout => {
                    to_send.push_back(i);
                    std::thread::sleep(self.retry_pause);
                }
                InferOutcome::Draining => {
                    return Err(io::Error::other("daemon is draining"));
                }
                InferOutcome::Err(msg) => {
                    return Err(io::Error::other(format!("window {i} failed: {msg}")));
                }
            }
        }

        // Origin order, exactly like the local session's reassembly loop.
        self.plan.begin();
        for (i, &origin) in self.origins.iter().enumerate() {
            let data = results[i].as_ref().expect("all windows resolved");
            self.plan
                .add_window(origin, data)
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        self.plan
            .finish()
            .map_err(|e| io::Error::other(e.to_string()))
    }
}
