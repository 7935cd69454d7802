//! CONGEST messages with separate ID-type and ordinary fields.

use serde::{Deserialize, Serialize};

/// Maximum number of ID-type fields per message.
///
/// Comparison-based algorithms (Section 1.4.2) may send ID-type variables in
/// messages, but a `O(log n)`-bit message can only contain a constant number
/// of them. Two is enough for every algorithm in the paper (e.g. "node with
/// ID `x` joined the MIS, forward towards ID `y`").
pub const MAX_ID_FIELDS: usize = 2;

/// Maximum number of ordinary `u64` value fields per message.
pub const MAX_VALUE_FIELDS: usize = 3;

/// A single `O(log n)`-bit CONGEST message.
///
/// A message consists of a small algorithm-defined `tag`, up to
/// [`MAX_ID_FIELDS`] *ID-type* fields and up to [`MAX_VALUE_FIELDS`]
/// *ordinary* fields. The distinction mirrors the comparison-based framework
/// of Awerbuch et al. used in Section 2: ID fields participate in the
/// decoded representation of an execution and in utilized-edge tracking,
/// ordinary fields do not.
///
/// # Example
///
/// ```
/// use symbreak_congest::Message;
///
/// let m = Message::tagged(7).with_id(12345).with_value(3);
/// assert_eq!(m.tag(), 7);
/// assert_eq!(m.ids(), &[12345]);
/// assert_eq!(m.values(), &[3]);
/// ```
/// Because the field counts are hard-capped ([`MAX_ID_FIELDS`],
/// [`MAX_VALUE_FIELDS`]), the payload is stored in fixed inline arrays: a
/// `Message` is a flat 48-byte `Copy`-able value with no heap allocation,
/// so the simulator's hot loop clones, moves and drops messages as plain
/// memory copies. Unused slots are always zero, which keeps the derived
/// `Eq`/`Hash` consistent with the visible fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Message {
    tag: u16,
    num_ids: u8,
    num_values: u8,
    ids: [u64; MAX_ID_FIELDS],
    values: [u64; MAX_VALUE_FIELDS],
}

impl Message {
    /// Creates an empty message with the given algorithm-defined tag.
    #[inline]
    pub fn tagged(tag: u16) -> Self {
        Message {
            tag,
            num_ids: 0,
            num_values: 0,
            ids: [0; MAX_ID_FIELDS],
            values: [0; MAX_VALUE_FIELDS],
        }
    }

    /// Adds an ID-type field.
    ///
    /// # Panics
    ///
    /// Panics if the message already carries [`MAX_ID_FIELDS`] IDs — that
    /// would exceed the `O(log n)`-bit budget of the CONGEST model.
    #[inline]
    pub fn with_id(mut self, id: u64) -> Self {
        assert!(
            (self.num_ids as usize) < MAX_ID_FIELDS,
            "a CONGEST message may carry at most {MAX_ID_FIELDS} ID fields"
        );
        self.ids[self.num_ids as usize] = id;
        self.num_ids += 1;
        self
    }

    /// Adds an ordinary value field.
    ///
    /// # Panics
    ///
    /// Panics if the message already carries [`MAX_VALUE_FIELDS`] values.
    #[inline]
    pub fn with_value(mut self, value: u64) -> Self {
        assert!(
            (self.num_values as usize) < MAX_VALUE_FIELDS,
            "a CONGEST message may carry at most {MAX_VALUE_FIELDS} value fields"
        );
        self.values[self.num_values as usize] = value;
        self.num_values += 1;
        self
    }

    /// The algorithm-defined tag.
    #[inline]
    pub fn tag(&self) -> u16 {
        self.tag
    }

    /// The ID-type fields.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids[..self.num_ids as usize]
    }

    /// The ordinary value fields.
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.values[..self.num_values as usize]
    }

    /// First ID field, if present.
    #[inline]
    pub fn id(&self) -> Option<u64> {
        self.ids().first().copied()
    }

    /// First value field, if present.
    #[inline]
    pub fn value(&self) -> Option<u64> {
        self.values().first().copied()
    }

    /// Size of the message in bits, assuming IDs and values are `O(log n)`
    /// quantities encoded in 64-bit words plus the 16-bit tag. Used by the
    /// simulator to enforce the per-message budget.
    #[inline]
    pub fn size_bits(&self) -> u32 {
        16 + 64 * (u32::from(self.num_ids) + u32::from(self.num_values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_fields() {
        let m = Message::tagged(3)
            .with_id(10)
            .with_id(20)
            .with_value(1)
            .with_value(2);
        assert_eq!(m.tag(), 3);
        assert_eq!(m.ids(), &[10, 20]);
        assert_eq!(m.values(), &[1, 2]);
        assert_eq!(m.id(), Some(10));
        assert_eq!(m.value(), Some(1));
    }

    #[test]
    fn empty_message_accessors() {
        let m = Message::tagged(0);
        assert_eq!(m.id(), None);
        assert_eq!(m.value(), None);
        assert_eq!(m.size_bits(), 16);
    }

    #[test]
    #[should_panic(expected = "ID fields")]
    fn too_many_ids_rejected() {
        let _ = Message::tagged(0).with_id(1).with_id(2).with_id(3);
    }

    #[test]
    #[should_panic(expected = "value fields")]
    fn too_many_values_rejected() {
        let _ = Message::tagged(0)
            .with_value(1)
            .with_value(2)
            .with_value(3)
            .with_value(4);
    }

    #[test]
    fn size_accounting() {
        let m = Message::tagged(9).with_id(5).with_value(6);
        assert_eq!(m.size_bits(), 16 + 128);
    }
}
