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
    /// The records are written in one pass by a [`RecordWriter`]. The query
    /// is read back from the last-name field of the record it picks.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero: there is no record to draw the query
    /// from.
    pub fn generate(seed: u64, records: usize) -> Self {
        let mut writer = RecordWriter::new(seed, records);
        let mut bytes = vec![0u8; records * RECORD_BYTES];
        writer.write(&mut bytes);
        let pick = writer.query_record();
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
        count_matches(&self.bytes, &field)
    }
}

/// Records in `bytes` (whole records) whose last-name field equals `field`.
pub fn count_matches(bytes: &[u8], field: &[u8; LAST_NAME_LEN]) -> usize {
    bytes
        .chunks_exact(RECORD_BYTES)
        .filter(|rec| rec[LAST_NAME_OFFSET..LAST_NAME_OFFSET + LAST_NAME_LEN] == *field)
        .count()
}

/// Offset of the deterministic filler that ends every record.
const FILLER_OFFSET: usize = 88;

/// The generator behind [`AddressBook::generate`], writing records in
/// order into memory the caller owns, in chunks of any whole number of
/// records. A workload that stages the book into simulated memory writes
/// it there directly instead of holding a second copy.
///
/// # Examples
///
/// ```
/// use ap_workloads::database::{AddressBook, RecordWriter, RECORD_BYTES};
///
/// let mut writer = RecordWriter::new(42, 100);
/// let mut bytes = vec![0u8; 100 * RECORD_BYTES];
/// let (head, tail) = bytes.split_at_mut(30 * RECORD_BYTES);
/// writer.write(head);
/// writer.write(tail);
/// let pick = writer.query_record();
///
/// let book = AddressBook::generate(42, 100);
/// assert_eq!(book.bytes(), &bytes[..]);
/// assert_eq!(&book.last_name_field(pick)[..book.query().len()], book.query().as_bytes());
/// ```
#[derive(Debug)]
pub struct RecordWriter {
    rng: StdRng,
    written: usize,
    records: usize,
}

impl RecordWriter {
    /// A writer for the `records` records that [`AddressBook::generate`]
    /// makes from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero: there is no record to draw the query
    /// from.
    pub fn new(seed: u64, records: usize) -> Self {
        assert!(records > 0, "an address book needs at least one record to draw its query from");
        RecordWriter { rng: StdRng::seed_from_u64(seed), written: 0, records }
    }

    /// Overwrites `out` with the next `out.len() / RECORD_BYTES` records.
    /// Every field is written straight into its record's bytes and is wide
    /// enough for its longest value; the rest of it is NUL.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not a whole number of records or holds more
    /// records than remain.
    pub fn write(&mut self, out: &mut [u8]) {
        assert!(out.len().is_multiple_of(RECORD_BYTES), "records are {RECORD_BYTES} bytes");
        let count = out.len() / RECORD_BYTES;
        assert!(self.written + count <= self.records, "more records than the book holds");
        let rng = &mut self.rng;
        for (r, rec) in (self.written..).zip(out.chunks_exact_mut(RECORD_BYTES)) {
            rec[..FILLER_OFFSET].fill(0);
            let extra = rng.random_range(0..2);
            Field::new(&mut rec[LAST_NAME_OFFSET..LAST_NAME_OFFSET + LAST_NAME_LEN])
                .name(rng, 2 + extra);
            Field::new(&mut rec[16..28]).name(rng, 2);
            // The house number is drawn before the street name.
            let number = rng.random_range(1..9999);
            Field::new(&mut rec[28..52]).number(number, 1).text(b" ").name(rng, 2).text(b" st");
            Field::new(&mut rec[52..68]).name(rng, 3);
            Field::new(&mut rec[68..76]).number(rng.random_range(10000..99999), 5);
            let area = rng.random_range(200..999);
            Field::new(&mut rec[76..FILLER_OFFSET])
                .number(area, 3)
                .text(b"-")
                .number(rng.random_range(0..9999), 4);
            for (i, b) in rec.iter_mut().enumerate().skip(FILLER_OFFSET) {
                *b = (r as u8).wrapping_mul(31).wrapping_add(i as u8);
            }
        }
        self.written += count;
    }

    /// Draws the index of the record whose last name is the book's query.
    ///
    /// # Panics
    ///
    /// Panics if records remain unwritten: the draw comes after the last
    /// record's.
    pub fn query_record(mut self) -> usize {
        assert_eq!(self.written, self.records, "the query is drawn after every record");
        self.rng.random_range(0..self.records)
    }
}

/// A cursor over one fixed-width record field. Bytes never written keep the
/// zero fill [`RecordWriter::write`] gave them, which is the field's NUL
/// padding.
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

    /// The writer fed one page body at a time (4000 records, then the
    /// rest) over a dirty buffer writes the book's bytes and picks its
    /// query.
    #[test]
    fn page_chunked_writer_matches_the_book() {
        let book = AddressBook::generate(0xDB5EED, 4_001);
        let mut bytes = vec![0xA5u8; 4_001 * RECORD_BYTES];
        let mut writer = RecordWriter::new(0xDB5EED, 4_001);
        for page in bytes.chunks_mut(4_000 * RECORD_BYTES) {
            writer.write(page);
        }
        let pick = writer.query_record();
        let mut whole = RecordWriter::new(0xDB5EED, 4_001);
        whole.write(&mut vec![0u8; 4_001 * RECORD_BYTES]);
        assert_eq!(pick, whole.query_record());
        assert_eq!(bytes, book.bytes());
        let field = book.last_name_field(pick);
        assert_eq!(&field[..book.query().len()], book.query().as_bytes());
        assert!(field[book.query().len()..].iter().all(|&b| b == 0));
        assert_eq!(count_matches(&bytes, &field), book.expected_matches(book.query()));
    }

    #[test]
    #[should_panic(expected = "after every record")]
    fn query_waits_for_every_record() {
        let mut writer = RecordWriter::new(1, 2);
        writer.write(&mut [0u8; RECORD_BYTES]);
        writer.query_record();
    }

    #[test]
    fn nonexistent_name_matches_zero() {
        let book = AddressBook::generate(3, 10);
        assert_eq!(book.expected_matches("zzzzzzzz"), 0);
    }
}
