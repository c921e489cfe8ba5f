//! Synthetic address book for the unindexed database query.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Fixed record size in bytes (32 words — matches the database circuit).
pub const RECORD_BYTES: usize = 128;

/// Byte offset and length of the last-name field within a record.
pub const LAST_NAME_OFFSET: usize = 0;
/// Length of the last-name field.
pub const LAST_NAME_LEN: usize = 16;

const SYLLABLES: [&str; 20] = [
    "an", "ber", "chen", "dor", "el", "far", "gra", "hol", "ing", "jor", "kal", "lu", "mar", "nor",
    "ock", "per", "quin", "rossi", "sten", "tam",
];

/// One synthetic address record.
///
/// # Examples
///
/// ```
/// use ap_workloads::database::AddressBook;
///
/// let book = AddressBook::generate(42, 100);
/// assert_eq!(book.records(), 100);
/// assert!(book.expected_matches(book.query()) >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct AddressBook {
    bytes: Vec<u8>,
    records: usize,
    query: String,
}

impl AddressBook {
    /// Generates `records` fixed-size address records from `seed`, plus a
    /// query last name guaranteed to appear at least once.
    ///
    /// Every field is written straight into its record's bytes and is wide
    /// enough for its longest value; the rest of it stays NUL. The query is
    /// read back from the last-name field of a record drawn after the last
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero: there is no record to draw the query
    /// from.
    pub fn generate(seed: u64, records: usize) -> Self {
        assert!(records > 0, "an address book needs at least one record to draw its query from");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = vec![0u8; records * RECORD_BYTES];
        for (r, rec) in bytes.chunks_exact_mut(RECORD_BYTES).enumerate() {
            let extra = rng.random_range(0..2);
            Field::new(&mut rec[LAST_NAME_OFFSET..LAST_NAME_OFFSET + LAST_NAME_LEN])
                .name(&mut rng, 2 + extra);
            Field::new(&mut rec[16..28]).name(&mut rng, 2);
            // The house number is drawn before the street name.
            let number = rng.random_range(1..9999);
            Field::new(&mut rec[28..52])
                .number(number, 1)
                .text(b" ")
                .name(&mut rng, 2)
                .text(b" st");
            Field::new(&mut rec[52..68]).name(&mut rng, 3);
            Field::new(&mut rec[68..76]).number(rng.random_range(10000..99999), 5);
            let area = rng.random_range(200..999);
            Field::new(&mut rec[76..88])
                .number(area, 3)
                .text(b"-")
                .number(rng.random_range(0..9999), 4);
            // Remaining bytes stay as deterministic filler.
            for (i, b) in rec.iter_mut().enumerate().skip(88) {
                *b = (r as u8).wrapping_mul(31).wrapping_add(i as u8);
            }
        }
        let pick = rng.random_range(0..records);
        let mut book = AddressBook { bytes, records, query: String::new() };
        let field = book.last_name_field(pick);
        let len = field.iter().position(|&b| b == 0).unwrap_or(LAST_NAME_LEN);
        book.query = String::from_utf8(field[..len].to_vec()).expect("names are ASCII");
        book
    }

    /// The raw serialized records.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of records.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The benchmark's query last name (guaranteed at least one match).
    pub fn query(&self) -> &str {
        &self.query
    }

    /// The last-name field of record `r` as stored (NUL padded).
    pub fn last_name_field(&self, r: usize) -> [u8; LAST_NAME_LEN] {
        let base = r * RECORD_BYTES + LAST_NAME_OFFSET;
        self.bytes[base..base + LAST_NAME_LEN].try_into().unwrap()
    }

    /// Reference answer: exact matches of `name` against the last-name field.
    pub fn expected_matches(&self, name: &str) -> usize {
        let mut field = [0u8; LAST_NAME_LEN];
        let b = name.as_bytes();
        let n = b.len().min(LAST_NAME_LEN);
        field[..n].copy_from_slice(&b[..n]);
        self.bytes
            .chunks_exact(RECORD_BYTES)
            .filter(|rec| rec[LAST_NAME_OFFSET..LAST_NAME_OFFSET + LAST_NAME_LEN] == field)
            .count()
    }
}

/// A cursor over one fixed-width record field. Bytes never written keep the
/// zero fill they were allocated with, which is the field's NUL padding.
struct Field<'a> {
    buf: &'a mut [u8],
    len: usize,
}

impl<'a> Field<'a> {
    fn new(buf: &'a mut [u8]) -> Self {
        Field { buf, len: 0 }
    }

    fn text(&mut self, s: &[u8]) -> &mut Self {
        self.buf[self.len..self.len + s.len()].copy_from_slice(s);
        self.len += s.len();
        self
    }

    /// `syllables` random syllables, drawn one at a time.
    fn name(&mut self, rng: &mut StdRng, syllables: usize) -> &mut Self {
        for _ in 0..syllables {
            self.text(SYLLABLES[rng.random_range(0..SYLLABLES.len())].as_bytes());
        }
        self
    }

    /// `v` in decimal, zero-padded to at least `width` ≥ 1 digits
    /// (`{:0width$}`).
    fn number(&mut self, mut v: u32, width: usize) -> &mut Self {
        let mut digits = [0u8; 10];
        let mut i = digits.len();
        while v > 0 || digits.len() - i < width {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.text(&digits[i..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let a = AddressBook::generate(7, 50);
        let b = AddressBook::generate(7, 50);
        assert_eq!(a.bytes(), b.bytes());
        assert_eq!(a.query(), b.query());
    }

    #[test]
    fn different_seeds_differ() {
        let a = AddressBook::generate(1, 50);
        let b = AddressBook::generate(2, 50);
        assert_ne!(a.bytes(), b.bytes());
    }

    #[test]
    fn query_always_matches_at_least_once() {
        for seed in 0..20 {
            let book = AddressBook::generate(seed, 64);
            assert!(book.expected_matches(book.query()) >= 1, "seed {seed}");
        }
    }

    #[test]
    fn records_are_fixed_size_and_nul_padded() {
        let book = AddressBook::generate(3, 10);
        assert_eq!(book.bytes().len(), 10 * RECORD_BYTES);
        let f = book.last_name_field(0);
        // Name syllables are ASCII; padding is NUL.
        assert!(f.iter().any(|&c| c != 0));
        assert!(f.iter().all(|&c| c == 0 || c.is_ascii_lowercase()));
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_book_is_rejected() {
        AddressBook::generate(1, 0);
    }

    #[test]
    fn nonexistent_name_matches_zero() {
        let book = AddressBook::generate(3, 10);
        assert_eq!(book.expected_matches("zzzzzzzz"), 0);
    }
}
