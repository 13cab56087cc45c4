//! Idle-host detection and host selection for the Sprite cluster.
//!
//! Load sharing needs an answer to "where should this process go?". This
//! crate provides the availability rule ([`AvailabilityPolicy`]) and the
//! four selection architectures the thesis compares in Chapter 6 —
//! [`CentralServer`] (Sprite's `migd`), [`SharedFileBoard`] (the original
//! design), MOSIX-style probabilistic gossip
//! ([`GossipDissemination::mosix`]) and [`MulticastQuery`]
//! (Theimer/Lantz-style stateless queries) — behind one [`HostSelector`]
//! trait so experiment E10 can race them on identical workloads.
//!
//! Two designs scale the answer past the thesis's clusters:
//! [`CentralServer::sharded`] spreads the same daemon over `c` hosts, each
//! serving the hosts [`HostPartition`](sprite_net::HostPartition) assigns
//! it, and [`GossipDissemination::new`] batches load vectors to
//! DetRng-chosen peers so selection becomes a local, allocation-free
//! lookup over a bounded age-stamped [`LoadCache`]. Every selector that
//! keeps state ranks its candidates and vetoes them against ground truth
//! through one [`Ranker`].

#![warn(missing_docs)]

mod cache;
mod gossip;
mod load;
mod selectors;

pub use cache::{CacheEntry, LoadCache, RankOrder, Ranker};
pub use gossip::{GossipDissemination, GOSSIP_CACHE_SLOTS};
pub use load::{AvailabilityPolicy, HostInfo};
pub use selectors::{CentralServer, HostSelector, MulticastQuery, SelectorStats, SharedFileBoard};
