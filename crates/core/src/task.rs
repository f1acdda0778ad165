//! Task descriptors: a standard header plus an opaque user body
//! (Figure 1 of the paper).

use crate::registry::TaskHandle;

/// Byte size of the serialized task header.
pub(crate) const HEADER_BYTES: usize = 16;
/// The header in 8-byte words.
pub(crate) const HEADER_WORDS: usize = HEADER_BYTES / 8;

/// Serialized task header: the metadata the runtime needs to schedule and
/// execute a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TaskHeader {
    /// Portable callback handle (`cb_execute` in the paper).
    pub callback: u32,
    /// Affinity the task was added with.
    pub affinity: i32,
    /// Rank that created the task.
    pub creator: u32,
    /// Length of the user body in bytes.
    pub body_len: u32,
}

impl TaskHeader {
    /// The header as the slot's first two little-endian words: `callback`
    /// and `affinity` in the first, `creator` and `body_len` in the second
    /// — the one definition of the header's layout.
    pub(crate) fn words(&self) -> [u64; 2] {
        let pair = |lo: u32, hi: u32| u64::from(lo) | u64::from(hi) << 32;
        [pair(self.callback, self.affinity as u32), pair(self.creator, self.body_len)]
    }

    /// The inverse of [`TaskHeader::words`].
    pub(crate) fn from_words([w0, w1]: [u64; 2]) -> TaskHeader {
        TaskHeader {
            callback: w0 as u32,
            affinity: (w0 >> 32) as u32 as i32,
            creator: w1 as u32,
            body_len: (w1 >> 32) as u32,
        }
    }

    /// The header at the start of a slot's bytes.
    pub(crate) fn decode(buf: &[u8]) -> TaskHeader {
        let word = |i: usize| u64::from_le_bytes(buf[8 * i..][..8].try_into().expect("8 bytes"));
        TaskHeader::from_words([word(0), word(1)])
    }
}

/// A task under construction: a callback handle plus an opaque body buffer
/// (the `tc_task_create` / `tc_task_body` API of §3.2).
///
/// Tasks are added to a collection with copy-in/copy-out semantics
/// (§3.1): after [`crate::TaskCollection::add`] returns, the `Task` buffer
/// is free for reuse — change the body and add again (`tc_task_reuse`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    handle: TaskHandle,
    body: Vec<u8>,
}

impl Task {
    /// Create a task dispatching to `handle` with the given body bytes.
    pub fn new(handle: TaskHandle, body: Vec<u8>) -> Self {
        Task { handle, body }
    }

    /// Create a task with a zeroed body of `body_sz` bytes.
    pub fn with_body_size(handle: TaskHandle, body_sz: usize) -> Self {
        Task {
            handle,
            body: vec![0; body_sz],
        }
    }

    /// Callback handle this task dispatches to.
    pub fn handle(&self) -> TaskHandle {
        self.handle
    }

    /// The user-defined body.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Mutable access to the body, for reuse between `add` calls.
    pub fn body_mut(&mut self) -> &mut Vec<u8> {
        &mut self.body
    }
}

/// Word `j` of a task's slot: the header's two words, then the body —
/// borrowed from wherever the caller holds it — eight little-endian bytes
/// a word, zero-padded, and zeros past it. The slot's bytes are what
/// [`decode_slot`] reads. A whole body word is one 8-byte load; only a
/// ragged last word is assembled, byte by byte.
#[inline]
pub(crate) fn slot_word(header: &TaskHeader, body: &[u8], j: usize) -> u64 {
    debug_assert_eq!(header.body_len as usize, body.len());
    let Some(b) = j.checked_sub(HEADER_WORDS) else {
        return header.words()[j];
    };
    let bytes = body.get(8 * b..).unwrap_or_default();
    match bytes.first_chunk::<8>() {
        Some(word) => u64::from_le_bytes(*word),
        None => bytes.iter().rev().fold(0, |w, &x| w << 8 | u64::from(x)),
    }
}

/// The header of a slot buffer and the body bytes it delimits.
pub(crate) fn decode_slot(slot: &[u8]) -> (TaskHeader, &[u8]) {
    let header = TaskHeader::decode(slot);
    (header, &slot[HEADER_BYTES..HEADER_BYTES + header.body_len as usize])
}

/// An owned copy of one slot: what a steal hands back, one per task of the
/// chunk it transferred. The owner's own add and pop never build one.
#[derive(Debug, Clone)]
pub(crate) struct TaskRecord {
    pub header: TaskHeader,
    pub body: Vec<u8>,
}

impl TaskRecord {
    /// Deserialize from a slot buffer.
    pub(crate) fn decode(slot: &[u8]) -> TaskRecord {
        let (header, body) = decode_slot(slot);
        TaskRecord { header, body: body.to_vec() }
    }
}

/// The callback type tasks dispatch to: registered collectively, invoked
/// with a [`crate::TaskCtx`] giving access to the machine context, the
/// collection (for spawning subtasks) and the task body.
pub type TaskFn = std::sync::Arc<dyn Fn(&crate::collection::TaskCtx<'_>) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = TaskHeader {
            callback: 7,
            affinity: -3,
            creator: 12,
            body_len: 100,
        };
        assert_eq!(TaskHeader::from_words(h.words()), h);
        let bytes: Vec<u8> = h.words().iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(TaskHeader::decode(&bytes), h);
    }

    #[test]
    fn slot_roundtrip_with_short_body() {
        let header = TaskHeader {
            callback: 1,
            affinity: 0,
            creator: 2,
            body_len: 3,
        };
        // A 3-byte body is one zero-padded word after the header.
        let mut slot: Vec<u8> = (0..3)
            .flat_map(|j| slot_word(&header, &[9, 8, 7], j).to_le_bytes())
            .collect();
        assert_eq!(slot[HEADER_BYTES..], [9, 8, 7, 0, 0, 0, 0, 0]);
        // Bytes past the body are the slot's, not the task's.
        slot.extend([0xEE; 8]);
        assert_eq!(decode_slot(&slot), (header, &[9u8, 8, 7][..]));
        let back = TaskRecord::decode(&slot);
        assert_eq!(back.body, vec![9, 8, 7]);
        assert_eq!(back.header, header);
    }

    #[test]
    fn task_body_reuse() {
        let mut t = Task::with_body_size(TaskHandle(0), 4);
        assert_eq!(t.body(), &[0, 0, 0, 0]);
        t.body_mut()[1] = 5;
        assert_eq!(t.body(), &[0, 5, 0, 0]);
    }
}
