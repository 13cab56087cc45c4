//! Virtual-memory substrate for the Sprite migration reproduction.
//!
//! Provides process address spaces ([`AddressSpace`]) with code/heap/stack
//! segments, real page contents, dirty tracking and demand paging through
//! the shared file system's backing files — plus the four VM migration
//! transfer strategies the thesis compares ([`VmStrategy`], [`transfer`]):
//! monolithic full copy (Charlotte/LOCUS), iterative pre-copy (V), lazy
//! copy-on-reference (Accent) and Sprite's flush-to-backing-file.
//!
//! # Examples
//!
//! ```
//! use sprite_fs::{FsConfig, SpriteFs, SpritePath};
//! use sprite_net::{CostModel, HostId, Transport};
//! use sprite_sim::SimTime;
//! use sprite_vm::{transfer, AddressSpace, SegmentKind, TransferParams, VirtAddr, VmStrategy};
//!
//! # fn main() -> Result<(), sprite_fs::FsError> {
//! let mut net = Transport::new(CostModel::sun3(), 3);
//! let mut fs = SpriteFs::new(FsConfig::default(), 3);
//! fs.add_server(HostId::new(0), SpritePath::new("/"));
//!
//! let src = HostId::new(1);
//! let dst = HostId::new(2);
//! let (program, t) = fs.create(&mut net, SimTime::ZERO, src, SpritePath::new("/bin/p9"))?;
//! let mut space = AddressSpace::create("p9", program, 4, 64, 8);
//! let t = space.write(&mut fs, &mut net, t, src, VirtAddr::new(SegmentKind::Heap, 0), &[7u8; 4096])?;
//! let report = transfer(&mut space, VmStrategy::SpriteFlush, &mut fs, &mut net, t, src, dst,
//!                       &TransferParams::default())?;
//! println!("froze for {}", report.freeze_time);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod ckpt;
mod space;
mod transfer;

pub use ckpt::{
    checkpoint, restore, CkptError, CkptImage, CkptReport, CkptResult, CkptStrategy, RestoreReport,
    CKPT_HEADER_BYTES, CKPT_KERNEL_RECORD_BYTES,
};
pub use space::{AddressSpace, CkptPage, Segment, SegmentKind, VirtAddr, VmStats};
pub use transfer::{transfer, TransferParams, TransferReport, VmStrategy};
