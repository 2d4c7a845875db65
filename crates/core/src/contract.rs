//! The chip's horizon contract: the single derivation shared by the
//! static verifier and the runtime cross-checker.
//!
//! [`horizon_contract`] maps a [`SmarcoConfig`] to the
//! [`HorizonContract`] governing the sharded chip (one shard per
//! sub-ring plus the hub):
//!
//! * **Topology** — sub-ring shards only ever message the hub and the
//!   hub only ever messages sub-ring shards. Sub↔sub and self-sends are
//!   unreachable; an envelope on such a pair is a wiring bug the
//!   debug-build checker turns into a panic.
//! * **Class floors** — junction-crossing traffic (`Up`/`Down`/`Exit`)
//!   is floored at the backend's boundary latency (the engine
//!   lookahead), and
//!   direct-datapath traffic (`DirectReq`/`DirectReply`) at the spoke
//!   latency, which is *longer* than the lookahead on every shipped
//!   config. The second floor is what the generic lookahead assertion
//!   cannot see: a direct-path component whose `next_event` promised a
//!   too-early visibility would pass the window check and still break
//!   cycle skipping.
//!
//! `smarco-lint`'s horizon pass (code `SL0421`) evaluates exactly this
//! object statically; [`SmarcoSystem`](crate::chip::SmarcoSystem)
//! installs exactly this object on its engine — the `Spm::certify`
//! pattern, one predicate with a static and a dynamic face.

use crate::config::SmarcoConfig;
use crate::shard::ChipMsg;
pub use smarco_sim::contract::HorizonContract;

/// Derives the sharded chip's horizon contract from its configuration.
///
/// The shard layout mirrors `SmarcoSystem::assemble`: shards
/// `0..subrings` are the sub-ring shards, shard `subrings` is the hub.
/// The junction floors come from the selected NoC backend's
/// `boundary_latency()` — the promise the backend makes about the
/// soonest a boundary crossing becomes visible in the other half.
pub fn horizon_contract(cfg: &SmarcoConfig) -> HorizonContract {
    let subrings = cfg.noc.subrings;
    let hub = subrings;
    let jl = cfg.noc.boundary_latency();
    let mut c = HorizonContract::unreachable(subrings + 1);
    for sr in 0..subrings {
        c.allow(sr, hub, jl);
        c.allow(hub, sr, jl);
    }
    // Class floors, indexed by `ChipMsg::contract_class`. With no direct
    // datapath configured, no direct-class message can legally exist:
    // `u64::MAX` makes the debug checker reject any that appears.
    let direct_floor = cfg.direct.as_ref().map_or(u64::MAX, |d| d.latency);
    let mut floors = vec![0; 2];
    floors[ChipMsg::CLASS_JUNCTION] = jl;
    floors[ChipMsg::CLASS_DIRECT] = direct_floor;
    c.set_class_floors(floors);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_contract_matches_the_shard_wiring() {
        let cfg = SmarcoConfig::tiny();
        let c = horizon_contract(&cfg);
        let hub = cfg.noc.subrings;
        assert_eq!(c.shards(), cfg.noc.subrings + 1);
        for sr in 0..cfg.noc.subrings {
            assert_eq!(c.pair_floor(sr, hub), cfg.noc.junction_latency);
            assert_eq!(c.pair_floor(hub, sr), cfg.noc.junction_latency);
            assert_eq!(c.pair_floor(sr, sr), u64::MAX, "self-sends forbidden");
            for other in 0..cfg.noc.subrings {
                if other != sr {
                    assert_eq!(c.pair_floor(sr, other), u64::MAX, "sub-sub forbidden");
                }
            }
        }
        let direct = cfg.direct.as_ref().expect("tiny has a direct path");
        assert_eq!(c.class_floor(ChipMsg::CLASS_DIRECT), direct.latency);
        assert_eq!(
            c.class_floor(ChipMsg::CLASS_JUNCTION),
            cfg.noc.junction_latency
        );
        assert!(
            direct.latency > cfg.noc.junction_latency,
            "the direct class floor is the non-vacuous half of the check"
        );
    }

    #[test]
    fn no_direct_path_forbids_direct_class_traffic() {
        let mut cfg = SmarcoConfig::tiny();
        cfg.direct = None;
        let c = horizon_contract(&cfg);
        assert_eq!(c.class_floor(ChipMsg::CLASS_DIRECT), u64::MAX);
    }
}
