//! Interned string symbols.
//!
//! All identifiers in the system — predicate names, variable names, and
//! symbolic constants — are interned into a process-global table so that a
//! [`Symbol`] is a `Copy` 32-bit handle. Homomorphism search (the hot loop
//! of containment checking) compares and hashes symbols millions of times;
//! interning keeps that loop free of string traffic, per the perf-book
//! guidance on avoiding allocation in hot paths.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;
use viewplan_sync::RwLock;

/// An interned string. Two symbols are equal iff their source strings are
/// equal. Resolution back to the string is only needed for display.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// Both sides hold the same leaked allocation: the table never shrinks,
/// so a string interned once lives for the process and its text can be
/// handed out as `&'static str` with no copy.
struct Interner {
    lookup: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            lookup: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `s`, returning its stable handle.
    // lock-order: the single interner lock, read then write, strictly
    // sequentially — the read guard's scope closes before the write
    // acquisition, so the two are never held together.
    pub fn new(s: &str) -> Symbol {
        // Fast path: already interned.
        {
            let rd = interner().read();
            if let Some(&id) = rd.lookup.get(s) {
                return Symbol(id);
            }
        }
        let mut wr = interner().write();
        if let Some(&id) = wr.lookup.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(wr.strings.len()).expect("symbol table overflow");
        let text: &'static str = Box::leak(Box::<str>::from(s));
        wr.strings.push(text);
        wr.lookup.insert(text, id);
        Symbol(id)
    }

    /// Returns the interned string — the table's own copy, which lives
    /// as long as the process, so reading a symbol allocates nothing.
    pub fn as_str(self) -> &'static str {
        interner().read().strings[self.0 as usize]
    }

    /// Raw handle, usable as a dense index (e.g. in per-run scratch tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The inverse of [`Symbol::index`]: the symbol a handle was taken
    /// from (the engine stores symbols as raw column words).
    ///
    /// # Panics
    /// Panics if `index` does not fit a handle; an index that no symbol
    /// ever returned from `index()` yields a symbol that panics when
    /// displayed.
    pub fn from_index(index: usize) -> Symbol {
        assert!(index <= u32::MAX as usize, "symbol index out of range");
        Symbol(index as u32)
    }

    /// How many distinct strings the process has interned so far. The
    /// table never shrinks, so a request path that leaves this unchanged
    /// leaks nothing into it (`tests/interner_growth.rs`).
    pub fn interned_len() -> usize {
        interner().read().strings.len()
    }

    /// A symbol guaranteed distinct from every symbol interned so far,
    /// derived from `base` (used for fresh-variable generation).
    // lock-order: interner read guards only, each dropped before the next
    // acquisition (`drop(rd)` precedes the `Symbol::new` write path), so
    // the lock is never held re-entrantly.
    pub fn fresh(base: &str) -> Symbol {
        // Candidate names `base#k`; `#` cannot appear in parsed identifiers,
        // so a fresh symbol can never collide with user input, only with
        // previously generated fresh symbols — hence the loop.
        let mut k = interner().read().strings.len();
        loop {
            let candidate = format!("{base}#{k}");
            let rd = interner().read();
            if !rd.lookup.contains_key(candidate.as_str()) {
                drop(rd);
                return Symbol::new(&candidate);
            }
            k += 1;
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = Symbol::new("car");
        let b = Symbol::new("car");
        let c = Symbol::new("loc");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "car");
        assert_eq!(c.as_str(), "loc");
    }

    #[test]
    fn display_round_trips() {
        let s = Symbol::new("part");
        assert_eq!(format!("{s}"), "part");
        assert_eq!(format!("{s:?}"), "part");
    }

    #[test]
    fn from_index_inverts_index() {
        let s = Symbol::new("round_trip");
        assert_eq!(Symbol::from_index(s.index()), s);
    }

    #[test]
    fn fresh_symbols_are_distinct() {
        let base = Symbol::new("X");
        let f1 = Symbol::fresh("X");
        let f2 = Symbol::fresh("X");
        assert_ne!(f1, base);
        assert_ne!(f2, base);
        assert_ne!(f1, f2);
    }

    #[test]
    fn fresh_never_collides_with_existing() {
        // Pre-intern a name of the shape fresh() would generate.
        let taken = Symbol::new("Y#0");
        let f = Symbol::fresh("Y");
        assert_ne!(f, taken);
    }

    #[test]
    fn symbols_are_ordered_deterministically_by_intern_order() {
        let a = Symbol::new("zzz_order_a");
        let b = Symbol::new("zzz_order_b");
        assert!(a < b);
    }
}
