//! Numbering distinct keys by first occurrence.
//!
//! Two hot paths number what they meet in the order they first meet it: a
//! served query's variables (the canonical parse) and an answer's atoms
//! (the serving cache's templates). Both usually see a few dozen keys at
//! most, where comparing against each key seen so far is cheaper than
//! hashing one; neither may go quadratic on a wide input, so past
//! [`SCAN_WIDTH`] keys the lookup goes through a map.

use std::collections::HashMap;
use std::hash::Hash;

/// Keys found by comparing against each one seen so far; past this many,
/// through a map.
pub const SCAN_WIDTH: usize = 32;

/// Distinct keys, numbered `0, 1, …` in the order they were first seen.
#[derive(Clone, Debug)]
pub struct FirstSeen<K> {
    keys: Vec<K>,
    /// `keys` by value, once there are more than [`SCAN_WIDTH`].
    map: HashMap<K, u32>,
}

impl<K> Default for FirstSeen<K> {
    fn default() -> FirstSeen<K> {
        FirstSeen {
            keys: Vec::new(),
            map: HashMap::new(),
        }
    }
}

impl<K: Eq + Hash + Clone> FirstSeen<K> {
    /// The number of `key`, and whether this is its first occurrence (a
    /// new key is kept, cloned).
    pub fn number(&mut self, key: &K) -> (usize, bool) {
        if let Some(i) = self.get(key) {
            return (i, false);
        }
        let i = self.keys.len();
        self.keys.push(key.clone());
        if i == SCAN_WIDTH {
            self.map = (0..).zip(&self.keys).map(|(j, k)| (k.clone(), j)).collect();
        } else if i > SCAN_WIDTH {
            self.map.insert(key.clone(), i as u32);
        }
        (i, true)
    }

    /// The number of `key`, if it has been seen.
    pub fn get(&self, key: &K) -> Option<usize> {
        if self.map.is_empty() {
            self.keys.iter().position(|k| k == key)
        } else {
            self.map.get(key).map(|&i| i as usize)
        }
    }

    /// The distinct keys, `keys()[n]` numbered `n`.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// [`FirstSeen::keys`], by value.
    pub fn into_keys(self) -> Vec<K> {
        self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_follow_first_occurrence_on_both_sides_of_the_scan_width() {
        let mut seen = FirstSeen::default();
        let keys: Vec<String> = (0..3 * SCAN_WIDTH).map(|i| format!("k{i}")).collect();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(seen.number(key), (i, true));
            // Every key seen so far keeps its number, scanned or mapped.
            for (j, earlier) in keys[..=i].iter().enumerate().step_by(7) {
                assert_eq!(seen.number(earlier), (j, false));
                assert_eq!(seen.get(earlier), Some(j));
            }
        }
        assert_eq!(seen.get(&"unseen".to_string()), None);
        assert_eq!(seen.keys(), &keys[..]);
        assert_eq!(seen.into_keys(), keys);
    }
}
