//! Pathnames and domains.
//!
//! Sprite presents a single network-wide file name space, partitioned into
//! *domains* each managed by one file server \[Wel90\]. Name lookup happens at
//! the server, one pathname component at a time — which is why lookups are
//! the file servers' dominant CPU cost during parallel compilations \[Nel88\],
//! and why E5's speedup curve bends where it does.
//!
//! Pathnames are *interned*: the first construction of a given normalized
//! path stores its text once in a process-wide table and every
//! [`SpritePath`] after that is a 32-bit symbol plus a cached pointer to the
//! shared text. Equality and hashing compare the symbol (one integer op),
//! cloning is trivial, and the name caches and server namespaces in
//! `sprite-fs` become integer-keyed tables. Ordering still compares the
//! text, so sorted output is identical to the string days.
//!
//! Interned text is never freed, and the table is not bounded by the
//! workload's file set: every segment that pages out interns a fresh
//! swap-file name (`/swap/<tag>.heap` or `.stack`) when its file is
//! created, and keeps it after the file is unlinked, so the table grows
//! with every process of a run that pages out. The text is packed into
//! leaked 64 KiB chunks (`CHUNK_BYTES`) rather than one allocation per
//! name, so that growth does not scatter small blocks between the
//! simulation's page frames on the heap. [`SpritePath::interned_count`]
//! exposes the table size for the data-plane counters report.

use std::fmt;
use std::sync::{OnceLock, RwLock};

use sprite_sim::DetHashMap;

/// Size of one leaked chunk of interned text: room for a few thousand
/// names. A chunk is zeroed when it is allocated, so a larger one costs
/// resident memory before names fill it.
const CHUNK_BYTES: usize = 1 << 16;

/// Append-only storage for interned text: each string is copied to the end
/// of the current leaked chunk, and a string that does not fit opens a new
/// chunk. A string longer than a whole chunk gets a leaked block of its
/// own.
struct Chunks {
    chunk_bytes: usize,
    /// The unused tail of the current chunk.
    free: &'static mut [u8],
}

impl Chunks {
    fn new(chunk_bytes: usize) -> Self {
        Chunks {
            chunk_bytes,
            free: Default::default(),
        }
    }

    fn store(&mut self, text: &str) -> &'static str {
        let n = text.len();
        if n > self.free.len() {
            if n > self.chunk_bytes {
                return Box::leak(Box::from(text));
            }
            self.free = Box::leak(vec![0; self.chunk_bytes].into_boxed_slice());
        }
        let (head, tail) = std::mem::take(&mut self.free).split_at_mut(n);
        self.free = tail;
        head.copy_from_slice(text.as_bytes());
        std::str::from_utf8(head).expect("copied from a str")
    }
}

/// The process-wide path intern table. Symbols index `strings`; `map` takes
/// normalized text back to its symbol. Strings live in leaked `chunks`, so
/// resolved text is `'static` and needs no lock and no copy.
struct Interner {
    map: DetHashMap<&'static str, u32>,
    strings: Vec<&'static str>,
    chunks: Chunks,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: DetHashMap::default(),
            strings: Vec::new(),
            chunks: Chunks::new(CHUNK_BYTES),
        })
    })
}

/// Interns normalized path text, returning its symbol and shared text.
fn intern(normalized: &str) -> (u32, &'static str) {
    let lock = interner();
    if let Some((&text, &sym)) = lock
        .read()
        .expect("interner poisoned")
        .map
        .get_key_value(normalized)
    {
        return (sym, text);
    }
    let mut guard = lock.write().expect("interner poisoned");
    // Double-check: another thread may have interned it between the locks.
    if let Some((&text, &sym)) = guard.map.get_key_value(normalized) {
        return (sym, text);
    }
    let text = guard.chunks.store(normalized);
    let sym = u32::try_from(guard.strings.len()).expect("interner full");
    guard.strings.push(text);
    guard.map.insert(text, sym);
    (sym, text)
}

/// An absolute pathname in the shared name space, as an interned symbol.
///
/// # Examples
///
/// ```
/// use sprite_fs::SpritePath;
///
/// let p = SpritePath::new("/users/douglis/thesis.tex");
/// assert_eq!(p.components().count(), 3);
/// assert_eq!(p.to_string(), "/users/douglis/thesis.tex");
/// ```
#[derive(Clone)]
pub struct SpritePath {
    sym: u32,
    text: &'static str,
}

impl SpritePath {
    /// Creates a path, normalizing to a single leading slash and no
    /// trailing slash. Already-normal text is interned as it is, with no
    /// copy.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty.
    pub fn new(path: impl AsRef<str>) -> Self {
        let raw = path.as_ref();
        assert!(!raw.is_empty(), "empty pathname");
        let already_normal =
            raw == "/" || (raw.starts_with('/') && !raw.ends_with('/') && !raw.contains("//"));
        let (sym, text) = if already_normal {
            intern(raw)
        } else {
            let trimmed = raw.trim_matches('/');
            intern(&format!("/{trimmed}"))
        };
        SpritePath { sym, text }
    }

    /// The pathname components, in order.
    pub fn components(&self) -> impl Iterator<Item = &'static str> {
        self.text.split('/').filter(|c| !c.is_empty())
    }

    /// Number of components (what a server-side lookup pays for).
    pub fn depth(&self) -> u64 {
        self.components().count() as u64
    }

    /// Appends a component.
    pub fn join(&self, component: &str) -> SpritePath {
        SpritePath::new(format!("{}/{}", self.text, component))
    }

    /// True if `self` lies under `prefix` (or equals it).
    pub fn starts_with(&self, prefix: &SpritePath) -> bool {
        if prefix.text == "/" {
            return true;
        }
        self.sym == prefix.sym
            || self
                .text
                .strip_prefix(prefix.text)
                .is_some_and(|rest| rest.starts_with('/'))
    }

    /// The raw string form.
    pub fn as_str(&self) -> &'static str {
        self.text
    }

    /// This path's intern symbol — the integer the name caches key on.
    pub fn symbol(&self) -> u32 {
        self.sym
    }

    /// Number of distinct paths interned process-wide (data-plane counters).
    pub fn interned_count() -> usize {
        interner().read().expect("interner poisoned").strings.len()
    }
}

impl PartialEq for SpritePath {
    fn eq(&self, other: &Self) -> bool {
        self.sym == other.sym
    }
}

impl Eq for SpritePath {}

impl std::hash::Hash for SpritePath {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sym.hash(state);
    }
}

impl PartialOrd for SpritePath {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SpritePath {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lexicographic on the text, same as the pre-interning String form,
        // so anything sorted by path renders in the same order.
        self.text.cmp(other.text)
    }
}

impl fmt::Debug for SpritePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SpritePath").field(&self.text).finish()
    }
}

impl fmt::Display for SpritePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

impl From<&str> for SpritePath {
    fn from(s: &str) -> Self {
        SpritePath::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_slashes() {
        assert_eq!(SpritePath::new("a/b").as_str(), "/a/b");
        assert_eq!(SpritePath::new("/a/b/").as_str(), "/a/b");
        assert_eq!(SpritePath::new("//a//"), SpritePath::new("a"));
    }

    #[test]
    fn depth_counts_components() {
        assert_eq!(SpritePath::new("/").depth(), 0);
        assert_eq!(SpritePath::new("/tmp").depth(), 1);
        assert_eq!(SpritePath::new("/users/ouster/x.c").depth(), 3);
    }

    #[test]
    fn join_appends() {
        let base = SpritePath::new("/src");
        assert_eq!(base.join("main.c"), SpritePath::new("/src/main.c"));
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        let p = SpritePath::new("/users/douglis/x");
        assert!(p.starts_with(&SpritePath::new("/users")));
        assert!(p.starts_with(&SpritePath::new("/users/douglis")));
        assert!(p.starts_with(&SpritePath::new("/")));
        assert!(!p.starts_with(&SpritePath::new("/use")));
        assert!(!p.starts_with(&SpritePath::new("/users/doug")));
        assert!(p.starts_with(&p.clone()));
    }

    #[test]
    #[should_panic(expected = "empty pathname")]
    fn empty_path_panics() {
        SpritePath::new("");
    }

    #[test]
    fn interning_shares_symbols() {
        let a = SpritePath::new("/interned/once");
        let b = SpritePath::new("interned/once/");
        assert_eq!(a.symbol(), b.symbol());
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "one stored copy");
        assert!(SpritePath::interned_count() > 0);
    }

    #[test]
    fn chunks_pack_text_and_open_a_new_chunk_when_full() {
        let mut chunks = Chunks::new(16);
        let a = chunks.store("/abcdefghij");
        let b = chunks.store("/klmn");
        // Eleven plus five bytes fill the first chunk exactly: contiguous.
        assert_eq!(a.as_ptr().wrapping_add(a.len()), b.as_ptr());
        // Six more bytes cross the chunk boundary into a fresh chunk.
        let c = chunks.store("/opqrs");
        let d = chunks.store("");
        let long = chunks.store("/a name longer than one chunk");
        let e = chunks.store("/tuv");
        assert_eq!(
            [a, b, c, d, long, e],
            [
                "/abcdefghij",
                "/klmn",
                "/opqrs",
                "",
                "/a name longer than one chunk",
                "/tuv"
            ]
        );
        // The long name took a block of its own; the chunk it did not fit
        // keeps filling.
        assert_eq!(c.as_ptr().wrapping_add(c.len()), e.as_ptr());
    }

    #[test]
    fn names_across_chunk_boundaries_keep_their_text_and_symbols() {
        let long = format!("/long/{}", "x".repeat(CHUNK_BYTES + 7));
        // Names of ~4 KB fill several chunks.
        let names: Vec<String> = (0..3 * CHUNK_BYTES / 4000)
            .map(|i| format!("/chunked/{i:03}/{}", "y".repeat(4000)))
            .chain(std::iter::once(long))
            .collect();
        let paths: Vec<SpritePath> = names.iter().map(|n| SpritePath::new(n.as_str())).collect();
        for (name, p) in names.iter().zip(&paths) {
            assert_eq!(p.as_str(), name);
            let again = SpritePath::new(name.as_str());
            assert_eq!(again.symbol(), p.symbol());
            assert!(std::ptr::eq(again.as_str(), p.as_str()));
        }
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Intern out of lexicographic order on purpose: symbol order and
        // text order must be allowed to disagree.
        let mut v = [
            SpritePath::new("/zz"),
            SpritePath::new("/aa"),
            SpritePath::new("/mm"),
        ];
        v.sort();
        let texts: Vec<&str> = v.iter().map(|p| p.as_str()).collect();
        assert_eq!(texts, vec!["/aa", "/mm", "/zz"]);
    }
}
