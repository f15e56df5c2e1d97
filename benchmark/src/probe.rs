//! A wire-level GET probe, independent of `minos_core::client::Client`:
//! its own socket, requests encoded and replies reassembled here with
//! `minos_wire` alone. The readiness ping and the verify pass use it, so
//! a client bug cannot hide behind itself.

use bytes::Bytes;
use minos_net::{endpoint_for, Transport, UdpTransport};
use minos_wire::frag::{fragment_frame_with_id, FragHeader};
use minos_wire::message::{Body, Message, ReplyStatus};
use minos_wire::packet::{synthesize_frame, Endpoint, TxPacket};
use minos_wire::MAX_FRAG_CHUNK;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Distinguishes probe traffic from the driver's client (id 0).
const PROBE_CLIENT_ID: u16 = 0xBE7C;

struct Partial {
    buf: Vec<u8>,
    seen: Vec<bool>,
    missing: usize,
}

pub struct Probe {
    transport: UdpTransport,
    local: Endpoint,
    server: Endpoint,
    next_id: u64,
    partials: HashMap<u64, Partial>,
    /// Requests sent.
    pub sent: u64,
    /// Replies received, late ones included: every one of them is an
    /// operation the server executed and counted.
    pub answered: u64,
}

impl Probe {
    pub fn bind(server_port: u16) -> Result<Probe, String> {
        let transport = UdpTransport::bind_client(Ipv4Addr::LOCALHOST)
            .map_err(|e| format!("probe bind: {e}"))?;
        Ok(Probe {
            local: transport.local_endpoint(0),
            server: endpoint_for(Ipv4Addr::LOCALHOST, server_port),
            transport,
            next_id: 1,
            partials: HashMap::new(),
            sent: 0,
            answered: 0,
        })
    }

    /// GETs `key` from RX queue `queue`; `None` if no reply to *this*
    /// request arrives within `timeout`.
    pub fn get(&mut self, queue: u16, key: u64, timeout: Duration) -> Option<(ReplyStatus, Bytes)> {
        let request_id = self.next_id;
        self.next_id += 1;
        let msg = Message {
            client_id: PROBE_CLIENT_ID,
            request_id,
            client_ts_ns: 0,
            body: Body::Get { key },
        };
        let dst = Endpoint {
            port: self.server.port + queue,
            ..self.server
        };
        let mut burst: Vec<TxPacket> = fragment_frame_with_id(request_id, &msg.encode_frame())
            .into_iter()
            .map(|frag| synthesize_frame(self.local, dst, frag))
            .collect();
        self.transport.tx_frames(0, &mut burst);
        self.sent += 1;

        let deadline = Instant::now() + timeout;
        let mut pkts = Vec::new();
        loop {
            pkts.clear();
            self.transport.rx_burst(0, &mut pkts, 64);
            for pkt in pkts.drain(..) {
                let Some(reply) = self.reassemble(pkt.payload) else {
                    continue;
                };
                self.answered += 1;
                if reply.request_id != request_id {
                    continue; // a late answer to an earlier, timed-out ping
                }
                if let Body::GetReply { status, value, .. } = reply.body {
                    return Some((status, value));
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::yield_now();
        }
    }

    /// Feeds one datagram; returns the message it completes, if any.
    fn reassemble(&mut self, payload: Bytes) -> Option<Message> {
        let mut rd = payload;
        let fh = FragHeader::decode(&mut rd)?;
        if fh.count == 1 {
            return Message::decode(rd);
        }
        let partial = self.partials.entry(fh.msg_id).or_insert_with(|| Partial {
            buf: vec![0; fh.msg_len as usize],
            seen: vec![false; usize::from(fh.count)],
            missing: usize::from(fh.count),
        });
        let index = usize::from(fh.index);
        let at = index * MAX_FRAG_CHUNK;
        if index >= partial.seen.len() || at + rd.len() > partial.buf.len() || partial.seen[index] {
            return None;
        }
        partial.buf[at..at + rd.len()].copy_from_slice(&rd);
        partial.seen[index] = true;
        partial.missing -= 1;
        if partial.missing > 0 {
            return None;
        }
        let done = self.partials.remove(&fh.msg_id)?;
        Message::decode(Bytes::from(done.buf))
    }

    /// Pings every RX queue with a GET for a key no workload stores
    /// until each answers, or `timeout` passes.
    pub fn wait_ready(&mut self, queues: u16, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        for queue in 0..queues {
            while self
                .get(queue, u64::MAX, Duration::from_millis(20))
                .is_none()
            {
                if Instant::now() >= deadline {
                    return Err(format!("server queue {queue} never answered a ping"));
                }
            }
        }
        Ok(())
    }
}
