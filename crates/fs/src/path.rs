//! Pathnames and domains.
//!
//! Sprite presents a single network-wide file name space, partitioned into
//! *domains* each managed by one file server \[Wel90\]. Name lookup happens at
//! the server, one pathname component at a time — which is why lookups are
//! the file servers' dominant CPU cost during parallel compilations \[Nel88\],
//! and why E5's speedup curve bends where it does.
//!
//! A [`SpritePath`] owns its normalized text, shared by reference count,
//! and the FNV-1a hash of that text, computed once in [`SpritePath::new`].
//! Equality compares the hash and then the text, `Hash` writes the one
//! cached word, and a striped domain places the name by the same hash
//! ([`ShardGroup::owner_of`](crate::ShardGroup::owner_of)). Ordering
//! compares the text, so sorted output is in name order.

use std::fmt;
use std::sync::Arc;

/// FNV-1a over a name's bytes: stable across runs and platforms.
fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An absolute pathname in the shared name space.
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
    /// `fnv1a64(&text)`: the word `Hash` writes and the key shard
    /// placement reduces.
    pub(crate) hash: u64,
    text: Arc<str>,
}

impl SpritePath {
    /// Creates a path, normalizing to a single leading slash, no repeated
    /// slashes and no trailing slash. Already-normal text is copied as it
    /// is.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty.
    pub fn new(path: impl AsRef<str>) -> Self {
        let raw = path.as_ref();
        assert!(!raw.is_empty(), "empty pathname");
        let already_normal =
            raw == "/" || (raw.starts_with('/') && !raw.ends_with('/') && !raw.contains("//"));
        let text: Arc<str> = if already_normal {
            raw.into()
        } else {
            let components: Vec<&str> = raw.split('/').filter(|c| !c.is_empty()).collect();
            format!("/{}", components.join("/")).into()
        };
        SpritePath {
            hash: fnv1a64(&text),
            text,
        }
    }

    /// The pathname components, in order.
    pub fn components(&self) -> impl Iterator<Item = &str> {
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
        &*prefix.text == "/"
            || self
                .text
                .strip_prefix(&*prefix.text)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
    }

    /// The raw string form.
    pub fn as_str(&self) -> &str {
        &self.text
    }
}

impl PartialEq for SpritePath {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.text == other.text
    }
}

impl Eq for SpritePath {}

impl std::hash::Hash for SpritePath {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for SpritePath {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SpritePath {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.text.cmp(&other.text)
    }
}

impl fmt::Debug for SpritePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SpritePath").field(&self.text).finish()
    }
}

impl fmt::Display for SpritePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
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
    fn spellings_of_one_name_are_equal_and_hash_equal() {
        use std::hash::BuildHasher;
        let spellings = ["a/b", "/a/b/", "//a//b"].map(SpritePath::new);
        for p in &spellings {
            assert_eq!(p, &spellings[0]);
            assert_eq!(p.as_str(), "/a/b");
            assert_eq!(
                sprite_sim::DetState.hash_one(p),
                sprite_sim::DetState.hash_one(&spellings[0])
            );
        }
        assert_ne!(SpritePath::new("/a/b"), SpritePath::new("/a/bc"));
    }

    #[test]
    fn debug_and_display_print_the_text() {
        let p = SpritePath::new("users/douglis/");
        assert_eq!(format!("{p:?}"), r#"SpritePath("/users/douglis")"#);
        assert_eq!(p.to_string(), "/users/douglis");
        assert_eq!(format!("{:?}", SpritePath::new("/")), r#"SpritePath("/")"#);
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Built out of lexicographic order on purpose.
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
