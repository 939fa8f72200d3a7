//! String interning for the simulation hot path.
//!
//! Every span, agent name, identity label and wait annotation used to be an
//! owned `String`, cloned on every event — the dominant allocation source in
//! profile. A [`SymPool`] maps each distinct string to a stable [`Sym`]
//! (`u32`) exactly once; the hot path then moves 4-byte keys and the
//! `Display`/report layer resolves them back to text only when a human looks.
//!
//! [`Label`] is the bridge type for public APIs: call sites keep passing
//! `"static str"` / `format!(...)` values unchanged (interned on use), while
//! performance-sensitive callers pre-intern once and pass the [`Sym`].

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A `u32`-keyed interned string, valid within the [`SymPool`] it came from.
///
/// `Sym` is `Copy` and 4 bytes: comparing, hashing and storing one is free
/// compared to the `String` it replaces. Resolve back to text with
/// [`SymPool::resolve`]. The default is [`Sym::EMPTY`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Sym(u32);

impl Sym {
    /// The empty string, pre-interned as key 0 in every pool.
    pub const EMPTY: Sym = Sym(0);

    /// The raw pool index (stable for the pool's lifetime).
    pub fn index(self) -> u32 {
        self.0
    }
}

#[derive(Default)]
struct PoolInner {
    map: HashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

/// A thread-safe string interner: each distinct string is stored once and
/// addressed by a [`Sym`].
///
/// The pool is shared (`Arc<SymPool>`) between an engine, its trace and its
/// agents; interning an already-known string takes one short lock and one
/// hash lookup, no allocation.
pub struct SymPool {
    inner: Mutex<PoolInner>,
}

impl Default for SymPool {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SymPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.inner.lock().unwrap();
        f.debug_struct("SymPool")
            .field("strings", &g.strings.len())
            .finish()
    }
}

impl SymPool {
    /// Create a pool with only the empty string (= [`Sym::EMPTY`]) interned.
    pub fn new() -> SymPool {
        let empty: Arc<str> = Arc::from("");
        let mut map = HashMap::new();
        map.insert(Arc::clone(&empty), 0);
        SymPool {
            inner: Mutex::new(PoolInner {
                map,
                strings: vec![empty],
            }),
        }
    }

    /// Intern `s`, allocating only the first time this pool sees it.
    pub fn intern(&self, s: &str) -> Sym {
        let mut g = self.inner.lock().unwrap();
        if let Some(&idx) = g.map.get(s) {
            return Sym(idx);
        }
        let idx = u32::try_from(g.strings.len()).expect("symbol pool overflow");
        let owned: Arc<str> = Arc::from(s);
        g.strings.push(Arc::clone(&owned));
        g.map.insert(owned, idx);
        Sym(idx)
    }

    /// Resolve a [`Sym`] back to its text (cheap `Arc` clone, no copy).
    ///
    /// # Panics
    /// Panics if `sym` did not come from this pool.
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        let g = self.inner.lock().unwrap();
        Arc::clone(&g.strings[sym.0 as usize])
    }

    /// Number of distinct strings interned (including the empty string).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().strings.len()
    }

    /// `true` only for a pool that somehow lost its empty-string entry —
    /// provided for API completeness alongside [`SymPool::len`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A span/identity label accepted by the agent-facing APIs.
///
/// Exists so that the 80+ existing `busy`/`record` call sites keep compiling
/// unchanged (`&str` and `format!` both convert), while hot callers can
/// pre-intern a [`Sym`] once and pay nothing per event.
#[derive(Debug, Clone)]
pub enum Label<'a> {
    /// Already interned — the zero-cost path.
    Sym(Sym),
    /// Borrowed text, interned on use.
    Str(&'a str),
    /// Owned text (e.g. a `format!` result), interned on use.
    Owned(String),
}

impl Label<'_> {
    /// Resolve this label to a [`Sym`] in `pool`.
    pub fn intern(self, pool: &SymPool) -> Sym {
        match self {
            Label::Sym(s) => s,
            Label::Str(s) => pool.intern(s),
            Label::Owned(s) => pool.intern(&s),
        }
    }
}

impl From<Sym> for Label<'static> {
    fn from(s: Sym) -> Self {
        Label::Sym(s)
    }
}

impl<'a> From<&'a str> for Label<'a> {
    fn from(s: &'a str) -> Self {
        Label::Str(s)
    }
}

impl<'a> From<&'a String> for Label<'a> {
    fn from(s: &'a String) -> Self {
        Label::Str(s)
    }
}

impl From<String> for Label<'static> {
    fn from(s: String) -> Self {
        Label::Owned(s)
    }
}

// Borrow bridge so `map.get(s: &str)` works on `HashMap<Arc<str>, u32>` —
// provided by std (`Arc<str>: Borrow<str>`); this assertion documents the
// dependency.
const _: fn() = || {
    fn assert_borrow<T: Borrow<str>>() {}
    assert_borrow::<Arc<str>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_stable() {
        let p = SymPool::new();
        let a = p.intern("gpu0.comm");
        let b = p.intern("gpu0.comm");
        assert_eq!(a, b);
        assert_eq!(&*p.resolve(a), "gpu0.comm");
        let c = p.intern("gpu1.comm");
        assert_ne!(a, c);
        assert_eq!(p.len(), 3); // "", and the two labels
    }

    #[test]
    fn empty_is_preinterned() {
        let p = SymPool::new();
        assert_eq!(p.intern(""), Sym::EMPTY);
        assert_eq!(&*p.resolve(Sym::EMPTY), "");
        assert!(!p.is_empty());
    }

    #[test]
    fn label_conversions_cover_all_call_shapes() {
        let p = SymPool::new();
        let pre = p.intern("hot");
        let from_sym: Label<'_> = pre.into();
        let from_str: Label<'_> = "hot".into();
        let owned = String::from("hot");
        let from_ref: Label<'_> = (&owned).into();
        let from_string: Label<'_> = owned.clone().into();
        for l in [from_sym, from_str, from_ref, from_string] {
            assert_eq!(l.intern(&p), pre);
        }
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let p = Arc::new(SymPool::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                let mut syms = Vec::new();
                for i in 0..32 {
                    syms.push(p.intern(&format!("label-{}", i % 8)));
                }
                syms
            }));
        }
        let all: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All threads agree on the key for each distinct string.
        for row in &all {
            for (i, s) in row.iter().enumerate() {
                assert_eq!(&*p.resolve(*s), &format!("label-{}", i % 8));
            }
        }
        assert_eq!(p.len(), 9); // "" plus label-0..label-7
    }
}
