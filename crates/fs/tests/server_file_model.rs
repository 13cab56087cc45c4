//! Differential test of a file server's block table against a contiguous
//! image.
//!
//! [`ServerFile`] stores a file as one shared [`Frame`] per block, each
//! holding only the written prefix of its block, plus the written length.
//! [`Image`] is the contiguous, zero-extended `Vec<u8>` that stored files
//! before: every `read_at`, `read_block`, `frame` and `logical_size` must
//! answer exactly as it would, after every operation of a [`DetRng`]-drawn
//! sequence. The sequences mix writes that straddle blocks, short tails
//! extended later, gaps, zero-length writes, reads past the end and
//! `put_frame` by reference with `write_at` by copy.
//!
//! The test also checks the sharing itself: a stored whole frame is handed
//! back by reference until something writes its block, and a write never
//! changes the bytes of a frame someone else still holds.

use sprite_fs::{FileId, FileKind, Frame, ServerFile, ServerState, SpriteFs, SpritePath};
use sprite_net::{HostId, PAGE_SIZE};
use sprite_sim::{DetRng, SimTime};

const PS: usize = PAGE_SIZE as usize;

/// Blocks the operations touch; reads look one block further.
const BLOCKS: u64 = 6;

fn cases(base: u64) -> u64 {
    if cfg!(feature = "heavy-tests") {
        base * 8
    } else {
        base
    }
}

/// The reference: one contiguous image, zero-extended by writes past its
/// end, plus the noted logical size.
#[derive(Default)]
struct Image {
    data: Vec<u8>,
    noted: u64,
}

impl Image {
    fn write_at(&mut self, offset: u64, bytes: &[u8]) {
        let end = offset as usize + bytes.len();
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.data[offset as usize..end].copy_from_slice(bytes);
    }

    fn read_at(&self, offset: u64, len: u64) -> Vec<u8> {
        let start = (offset as usize).min(self.data.len());
        let end = ((offset + len) as usize).min(self.data.len());
        self.data[start..end].to_vec()
    }

    fn read_block(&self, block: u64) -> Vec<u8> {
        self.read_at(block * PAGE_SIZE, PAGE_SIZE)
    }

    /// What a page-in sees: the block, zero-filled to a whole page.
    fn frame(&self, block: u64) -> Vec<u8> {
        let mut page = self.read_block(block);
        page.resize(PS, 0);
        page
    }

    fn logical_size(&self) -> u64 {
        self.noted.max(self.data.len() as u64)
    }
}

/// A server holding one empty regular file, and that file's id.
fn server_with_file() -> (ServerState, FileId) {
    // FileIds are minted by a SpriteFs; the constructor is private.
    let mut net = sprite_net::Transport::new(sprite_net::CostModel::sun3(), 2);
    let mut fs = SpriteFs::new(sprite_fs::FsConfig::default(), 2);
    fs.add_server(HostId::new(0), SpritePath::new("/"));
    let (id, _) = fs
        .create(
            &mut net,
            SimTime::ZERO,
            HostId::new(1),
            SpritePath::new("/model/file"),
        )
        .unwrap();
    let mut server = ServerState::new(HostId::new(0), 8);
    server.create(SpritePath::new("/model/file"), id, FileKind::Regular);
    (server, id)
}

/// An offset and length drawn to hit the block table's edge cases.
fn extent(rng: &mut DetRng) -> (u64, usize) {
    let block = rng.uniform_u64(BLOCKS);
    let start = block * PAGE_SIZE;
    match rng.uniform_u64(6) {
        // Zero-length, possibly past the end: extends the length only.
        0 => (start + rng.uniform_u64(PAGE_SIZE), 0),
        // Short, inside one block (makes and extends short tails).
        1 => (start + rng.uniform_u64(PAGE_SIZE), 1 + rng.pick_index(64)),
        // Straddles a block boundary.
        2 => {
            let before = 1 + rng.uniform_u64(200);
            (
                start + PAGE_SIZE - before,
                before as usize + 1 + rng.pick_index(200),
            )
        }
        // Exactly one whole block.
        3 => (start, PS),
        // Several blocks, unaligned.
        4 => (
            start + rng.uniform_u64(PAGE_SIZE),
            PS + rng.pick_index(2 * PS),
        ),
        // From a block start to somewhere inside it.
        _ => (start, 1 + rng.pick_index(PS - 1)),
    }
}

fn fill(rng: &mut DetRng, len: usize) -> Vec<u8> {
    // Never zero, so a byte that should be written cannot pass as a gap.
    (0..len).map(|_| 1 + rng.uniform_u64(255) as u8).collect()
}

/// Every observation must match the reference.
fn assert_same(file: &ServerFile, image: &Image, what: &str) {
    assert_eq!(file.logical_size(), image.logical_size(), "{what}: size");
    for block in 0..=BLOCKS + 1 {
        assert_eq!(
            file.read_block(block),
            image.read_block(block),
            "{what}: read_block {block}"
        );
        let frame = file.frame(block);
        assert_eq!(frame.len(), PS, "{what}: frame {block} is not a whole page");
        assert_eq!(*frame, *image.frame(block), "{what}: frame {block}");
    }
    let end = image.data.len() as u64;
    for (offset, len) in [
        (0, end + PAGE_SIZE),
        (end.saturating_sub(10), 100),
        (end, 10),
        (end + 3, 10),
        (PAGE_SIZE - 5, 10),
        (PAGE_SIZE + 7, 3 * PAGE_SIZE),
    ] {
        assert_eq!(
            file.read_at(offset, len),
            image.read_at(offset, len),
            "{what}: read_at({offset}, {len})"
        );
    }
}

#[test]
fn block_table_reads_exactly_like_a_contiguous_image() {
    for seed in 0..cases(64) {
        let mut rng = DetRng::seed_from(seed);
        let (mut server, id) = server_with_file();
        let mut image = Image::default();
        // Frames handed to `put_frame`, with their bytes at hand-off: the
        // file must keep returning the same allocation until its block is
        // written, and nothing may write through the test's reference.
        let mut put: Vec<Option<Frame>> = vec![None; BLOCKS as usize];
        let mut held: Vec<(Frame, Vec<u8>)> = Vec::new();
        for op in 0..120 {
            let file = server.file_mut(id).unwrap();
            let what = format!("seed {seed} op {op}");
            match rng.uniform_u64(10) {
                0..=5 => {
                    let (offset, len) = extent(&mut rng);
                    let bytes = fill(&mut rng, len);
                    file.write_at(offset, &bytes);
                    image.write_at(offset, &bytes);
                    let first = offset / PAGE_SIZE;
                    let last = (offset + len as u64).div_ceil(PAGE_SIZE);
                    for block in first..last.min(BLOCKS) {
                        put[block as usize] = None;
                    }
                }
                6 | 7 => {
                    let block = rng.uniform_u64(BLOCKS);
                    // Mostly whole pages (stored by reference), sometimes a
                    // short frame (written by copy).
                    let len = if rng.chance(0.8) {
                        PS
                    } else {
                        1 + rng.pick_index(PS - 1)
                    };
                    let bytes = fill(&mut rng, len);
                    let frame = Frame::from(bytes.as_slice());
                    file.put_frame(block, Frame::clone(&frame));
                    image.write_at(block * PAGE_SIZE, &bytes);
                    put[block as usize] = (len == PS).then(|| Frame::clone(&frame));
                    held.push((frame, bytes));
                }
                8 => {
                    // A page-in followed by the holder's own copy-on-write:
                    // the file's block must not change.
                    let block = rng.uniform_u64(BLOCKS);
                    let mut frame = file.frame(block);
                    let before = frame.to_vec();
                    std::sync::Arc::make_mut(&mut frame)[0] ^= 0xff;
                    assert_eq!(*file.frame(block), *before, "{what}: write through page-in");
                }
                _ => {
                    let end = rng.uniform_u64((BLOCKS + 1) * PAGE_SIZE);
                    file.note_logical_size(end);
                    image.noted = image.noted.max(end);
                }
            }
            let file = server.file(id).unwrap();
            assert_same(file, &image, &what);
            for (block, frame) in put.iter().enumerate() {
                if let Some(frame) = frame {
                    assert!(
                        Frame::ptr_eq(&file.frame(block as u64), frame),
                        "{what}: block {block} no longer shares the frame put there"
                    );
                }
            }
            for (frame, bytes) in &held {
                assert_eq!(**frame, **bytes, "{what}: a held frame was written through");
            }
        }
    }
}
