//! Idle-host detection and host selection for the Sprite cluster.
//!
//! Load sharing needs an answer to "where should this process go?". This
//! crate provides the load metric ([`LoadAverage`]), the availability rule
//! ([`AvailabilityPolicy`]) and the four selection architectures the thesis
//! compares in Chapter 6 — [`CentralServer`] (Sprite's `migd`),
//! [`SharedFileBoard`] (the original design), [`Probabilistic`]
//! (MOSIX-style gossip) and [`MulticastQuery`] (Theimer/Lantz-style
//! stateless queries) — behind one [`HostSelector`] trait so experiment E10
//! can race them on identical workloads.
//!
//! Two decentralized architectures scale the answer past the thesis's
//! clusters: [`ShardedCoordinator`] hashes hosts across `c` coordinator
//! daemons, and [`GossipDissemination`] batches load vectors to DetRng-
//! chosen peers so selection becomes a local, allocation-free lookup over
//! a bounded age-stamped [`LoadCache`].

#![warn(missing_docs)]

mod cache;
mod gossip;
mod load;
mod selectors;
mod sharded;

pub use cache::{CacheEntry, LoadCache, RankOrder, Ranker};
pub use gossip::{GossipDissemination, GOSSIP_CACHE_SLOTS};
pub use load::{AvailabilityPolicy, HostInfo, LoadAverage};
pub use selectors::{
    CentralServer, HostSelector, MulticastQuery, Probabilistic, SelectorStats, SharedFileBoard,
};
pub use sharded::ShardedCoordinator;
