//! A virtual multi-queue NIC.
//!
//! Minos "relies on the availability of a multi-queue NIC with support for
//! redirecting, in hardware, a packet to a specific queue" (paper §4.1):
//! clients name an RX queue with the UDP destination port, and "Minos can
//! use Flow Director to set the target RX queue as UDP destination port"
//! (§5.1). This crate is the in-process equivalent, so the rest of the
//! system can be built and tested on any machine. It has one steering
//! rule, [`minos_wire::udp::UdpHeader::target_queue`]: port `9000 + q`
//! lands on RX queue `q`, and a port that names no queue is dropped and
//! counted, as the kernel drops a datagram for a port nobody bound. The
//! real-UDP backend gets the same rule from the kernel's port
//! demultiplexing, so both backends steer identically.
//!
//! The NIC takes packets, not frame images: framing and checksums are
//! a real NIC's job, and nothing on the in-process wire corrupts a
//! byte. [`VirtualNic::deliver_packet`] steers a packet and enqueues it
//! on a lock-free RX ring; cores take packets off the rings in bursts
//! ([`VirtualNic::rx_burst`]), and replies wait on TX rings until the
//! in-process client drains them ([`VirtualNic::tx_drain`]). Each RX
//! ring has a doorbell, an [`EventFd`] that polls readable while the
//! ring holds packets ([`VirtualNic::rx_doorbell`]), so a core can
//! block on an idle ring as it would on a socket.
//!
//! The property preserved from real hardware: **steering costs no server
//! CPU** — `deliver_packet` runs on the sender's (client's) context, and a
//! server core only ever touches packets that are already in its RX ring.
//! That is what "hardware dispatch" means for Minos small requests.

#![warn(missing_docs)]

pub mod device;
mod eventfd;

pub use device::{Delivery, NicConfig, NicStats, VirtualNic};
pub use eventfd::EventFd;
