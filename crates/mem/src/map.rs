//! The unified address space (§3.5.1: SPM is "initialized of unified
//! addressing with main memory").
//!
//! Layout:
//!
//! ```text
//! 0x0000_0000_0000 .. DRAM_BYTES                  main memory (DDR4)
//! SPM_BASE + core*SPM_BYTES .. +SPM_BYTES         core's scratchpad window
//!   (top SPM_CTRL_BYTES of each window are DMA control registers)
//! ```
//!
//! LSQ units "check the address and judge whether to send the requirement
//! to the cache or to the SPM" — that check is [`AddressSpace::classify`].

/// Default DRAM capacity: 4 × 16 GB DDR4 (Table 2). Simulated runs touch a
/// small fraction; the constant only bounds the map.
pub const DRAM_BYTES: u64 = 64 << 30;

/// Base of the SPM region in the unified address space.
pub const SPM_BASE: u64 = 0x4000_0000_0000;

/// Per-core scratchpad capacity (§3.1: 128 KB local memory).
pub const SPM_BYTES: u64 = 128 << 10;

/// Top-of-SPM control-register window (§3.5.1: "SPMs spare top 256 bytes
/// space to act as control registers" for DMA source/dest/size).
pub const SPM_CTRL_BYTES: u64 = 256;

/// DDR interleave granularity: consecutive 4 KB blocks go to consecutive
/// channels.
const INTERLEAVE_BYTES: u64 = 4096;

/// The DDR channel, of `channels`, that serves `addr`. The chip's one
/// address-to-channel mapping: the address map, the sub-ring shards that
/// route requests and the hub that queues them all call it.
pub fn channel_of(addr: u64, channels: usize) -> usize {
    ((addr / INTERLEAVE_BYTES) % channels as u64) as usize
}

/// Where an address lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Main memory, with the owning DDR channel index.
    Dram {
        /// Interleaved DDR channel.
        channel: usize,
    },
    /// A core's scratchpad data region.
    Spm {
        /// Owning core.
        core: usize,
        /// Byte offset within the SPM window.
        offset: u64,
    },
    /// A core's SPM control registers (DMA programming).
    SpmCtrl {
        /// Owning core.
        core: usize,
        /// Register offset within the control window.
        offset: u64,
    },
    /// Outside every mapped region.
    Unmapped,
}

/// Where a byte *range* lands; see [`AddressSpace::classify_range`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeClass {
    /// The whole range lies inside one region (the region of its first
    /// byte; for DRAM the channel is the first byte's channel — a range
    /// may still span interleave boundaries).
    Within(Region),
    /// The range starts and ends in different regions (or different
    /// cores' SPM windows) — two agents would service it.
    Straddles {
        /// Region of the first byte.
        first: Region,
        /// Region of the last byte.
        end: Region,
    },
    /// Both ends fall outside every mapped region.
    Unmapped,
}

/// Address-space geometry: core count and DDR channel count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpace {
    cores: usize,
    channels: usize,
}

impl AddressSpace {
    /// SmarCo defaults: 256 cores, 4 DDR channels, 4 KB interleave.
    pub fn smarco() -> Self {
        Self::new(256, 4)
    }

    /// Creates a map for `cores` cores and `channels` DDR channels.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(cores: usize, channels: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(channels > 0, "need at least one DDR channel");
        Self { cores, channels }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Number of DDR channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Base address of `core`'s SPM window.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn spm_base(&self, core: usize) -> u64 {
        assert!(core < self.cores, "core {core} out of range");
        SPM_BASE + core as u64 * SPM_BYTES
    }

    /// Classifies an address.
    pub fn classify(&self, addr: u64) -> Region {
        if addr < DRAM_BYTES {
            return Region::Dram {
                channel: channel_of(addr, self.channels),
            };
        }
        if addr >= SPM_BASE {
            let rel = addr - SPM_BASE;
            let core = (rel / SPM_BYTES) as usize;
            if core < self.cores {
                let offset = rel % SPM_BYTES;
                let data_bytes = SPM_BYTES - SPM_CTRL_BYTES;
                return if offset < data_bytes {
                    Region::Spm { core, offset }
                } else {
                    Region::SpmCtrl {
                        core,
                        offset: offset - data_bytes,
                    }
                };
            }
        }
        Region::Unmapped
    }

    /// Classifies a byte *range* `[addr, addr + bytes)`.
    ///
    /// Static analyses (the `smarco-lint` address-map pass) need to know
    /// not just where a range starts but whether it stays inside one
    /// region: an access that straddles a region boundary is serviced by
    /// two different agents and is almost certainly a bug.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or the range overflows the address space.
    pub fn classify_range(&self, addr: u64, bytes: u64) -> RangeClass {
        assert!(bytes > 0, "zero-length range");
        let last = addr
            .checked_add(bytes - 1)
            .expect("range overflows the address space");
        let first = self.classify(addr);
        let end = self.classify(last);
        match (first, end) {
            (Region::Unmapped, Region::Unmapped) => RangeClass::Unmapped,
            (Region::Unmapped, _) | (_, Region::Unmapped) => RangeClass::Straddles { first, end },
            (Region::Dram { .. }, Region::Dram { .. }) => RangeClass::Within(first),
            (Region::Spm { core: a, .. }, Region::Spm { core: b, .. }) if a == b => {
                RangeClass::Within(first)
            }
            (Region::SpmCtrl { core: a, .. }, Region::SpmCtrl { core: b, .. }) if a == b => {
                RangeClass::Within(first)
            }
            _ => RangeClass::Straddles { first, end },
        }
    }

    /// Whether `addr` is scratchpad space (data or control) of any core.
    pub fn is_spm(&self, addr: u64) -> bool {
        matches!(
            self.classify(addr),
            Region::Spm { .. } | Region::SpmCtrl { .. }
        )
    }

    /// DDR channel owning a DRAM address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a DRAM address.
    pub fn dram_channel(&self, addr: u64) -> usize {
        match self.classify(addr) {
            Region::Dram { channel } => channel,
            other => panic!("address {addr:#x} is not DRAM ({other:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_addresses_classify_and_interleave() {
        let a = AddressSpace::new(4, 4);
        assert_eq!(a.classify(0), Region::Dram { channel: 0 });
        assert_eq!(a.classify(4096), Region::Dram { channel: 1 });
        assert_eq!(a.classify(4096 * 5), Region::Dram { channel: 1 });
        assert_eq!(a.dram_channel(4096 * 2 + 17), 2);
        // The address map and the shards share one mapping.
        for addr in [0, 4095, 4096, 4096 * 7 + 9, 1 << 30] {
            assert_eq!(a.dram_channel(addr), channel_of(addr, 4));
        }
    }

    #[test]
    fn spm_windows_belong_to_cores() {
        let a = AddressSpace::new(8, 4);
        let base = a.spm_base(3);
        assert_eq!(a.classify(base), Region::Spm { core: 3, offset: 0 });
        assert_eq!(
            a.classify(base + 100),
            Region::Spm {
                core: 3,
                offset: 100
            }
        );
        assert!(a.is_spm(base));
        assert!(!a.is_spm(0x1000));
    }

    #[test]
    fn control_registers_at_top_of_window() {
        let a = AddressSpace::new(2, 1);
        let base = a.spm_base(1);
        let ctrl_start = base + SPM_BYTES - SPM_CTRL_BYTES;
        assert_eq!(
            a.classify(ctrl_start),
            Region::SpmCtrl { core: 1, offset: 0 }
        );
        assert_eq!(
            a.classify(ctrl_start + 255),
            Region::SpmCtrl {
                core: 1,
                offset: 255
            }
        );
        // One byte below control space is still data.
        assert!(matches!(
            a.classify(ctrl_start - 1),
            Region::Spm { core: 1, .. }
        ));
    }

    #[test]
    fn out_of_range_addresses_unmapped() {
        let a = AddressSpace::new(2, 1);
        let past_last = SPM_BASE + 2 * SPM_BYTES;
        assert_eq!(a.classify(past_last), Region::Unmapped);
        assert_eq!(a.classify(DRAM_BYTES + 1), Region::Unmapped);
    }

    #[test]
    fn smarco_defaults() {
        let a = AddressSpace::smarco();
        assert_eq!(a.cores(), 256);
        assert_eq!(a.channels(), 4);
        // Every core's SPM window classifies back to that core.
        for core in [0usize, 17, 255] {
            assert_eq!(
                a.classify(a.spm_base(core)),
                Region::Spm { core, offset: 0 }
            );
        }
    }

    #[test]
    fn dram_region_first_and_last_byte() {
        let a = AddressSpace::new(2, 2);
        assert!(matches!(a.classify(0), Region::Dram { channel: 0 }));
        assert!(matches!(a.classify(DRAM_BYTES - 1), Region::Dram { .. }));
        assert_eq!(a.classify(DRAM_BYTES), Region::Unmapped);
    }

    #[test]
    fn spm_window_first_and_last_byte_of_every_core() {
        let a = AddressSpace::new(3, 1);
        for core in 0..3 {
            let base = a.spm_base(core);
            assert_eq!(a.classify(base), Region::Spm { core, offset: 0 });
            // Last byte of the window is the last control register.
            assert_eq!(
                a.classify(base + SPM_BYTES - 1),
                Region::SpmCtrl {
                    core,
                    offset: SPM_CTRL_BYTES - 1
                }
            );
            // Last data byte sits just below the control window.
            assert_eq!(
                a.classify(base + SPM_BYTES - SPM_CTRL_BYTES - 1),
                Region::Spm {
                    core,
                    offset: SPM_BYTES - SPM_CTRL_BYTES - 1
                }
            );
        }
        // One byte past the last core's window is unmapped.
        assert_eq!(a.classify(SPM_BASE + 3 * SPM_BYTES), Region::Unmapped);
    }

    #[test]
    fn unmapped_hole_between_dram_and_spm() {
        let a = AddressSpace::new(2, 1);
        assert_eq!(a.classify(DRAM_BYTES), Region::Unmapped);
        assert_eq!(a.classify((DRAM_BYTES + SPM_BASE) / 2), Region::Unmapped);
        assert_eq!(a.classify(SPM_BASE - 1), Region::Unmapped);
        assert!(matches!(a.classify(SPM_BASE), Region::Spm { core: 0, .. }));
    }

    #[test]
    fn range_within_a_single_region() {
        let a = AddressSpace::new(2, 2);
        assert_eq!(
            a.classify_range(64, 64),
            RangeClass::Within(Region::Dram { channel: 0 })
        );
        let base = a.spm_base(1);
        assert_eq!(
            a.classify_range(base, 64),
            RangeClass::Within(Region::Spm { core: 1, offset: 0 })
        );
    }

    #[test]
    fn range_straddling_region_boundaries() {
        let a = AddressSpace::new(2, 1);
        // DRAM running into the unmapped hole.
        assert!(matches!(
            a.classify_range(DRAM_BYTES - 8, 16),
            RangeClass::Straddles {
                first: Region::Dram { .. },
                end: Region::Unmapped
            }
        ));
        // SPM data running into the control window.
        let base = a.spm_base(0);
        assert!(matches!(
            a.classify_range(base + SPM_BYTES - SPM_CTRL_BYTES - 4, 8),
            RangeClass::Straddles {
                first: Region::Spm { core: 0, .. },
                end: Region::SpmCtrl { core: 0, .. }
            }
        ));
        // One core's control window running into the next core's data.
        assert!(matches!(
            a.classify_range(base + SPM_BYTES - 4, 8),
            RangeClass::Straddles {
                first: Region::SpmCtrl { core: 0, .. },
                end: Region::Spm { core: 1, .. }
            }
        ));
        // Hole running into the first SPM window.
        assert!(matches!(
            a.classify_range(SPM_BASE - 2, 4),
            RangeClass::Straddles {
                first: Region::Unmapped,
                end: Region::Spm { core: 0, .. }
            }
        ));
    }

    #[test]
    fn range_fully_unmapped() {
        let a = AddressSpace::new(2, 1);
        assert_eq!(
            a.classify_range(DRAM_BYTES + 4096, 64),
            RangeClass::Unmapped
        );
        assert_eq!(
            a.classify_range(SPM_BASE + 2 * SPM_BYTES, 64),
            RangeClass::Unmapped
        );
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_range_rejected() {
        AddressSpace::new(2, 1).classify_range(0, 0);
    }

    #[test]
    #[should_panic(expected = "not DRAM")]
    fn dram_channel_rejects_spm_address() {
        let a = AddressSpace::new(2, 2);
        a.dram_channel(a.spm_base(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spm_base_bounds_checked() {
        AddressSpace::new(2, 2).spm_base(2);
    }
}
