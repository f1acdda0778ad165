//! Task descriptors: a standard header plus an opaque user body
//! (Figure 1 of the paper).

use crate::registry::TaskHandle;

/// Byte size of the serialized task header.
pub(crate) const HEADER_BYTES: usize = 16;

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
    pub(crate) fn encode(&self, out: &mut [u8]) {
        out[0..4].copy_from_slice(&self.callback.to_le_bytes());
        out[4..8].copy_from_slice(&self.affinity.to_le_bytes());
        out[8..12].copy_from_slice(&self.creator.to_le_bytes());
        out[12..16].copy_from_slice(&self.body_len.to_le_bytes());
    }

    pub(crate) fn decode(buf: &[u8]) -> TaskHeader {
        TaskHeader {
            callback: u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")),
            affinity: i32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")),
            creator: u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")),
            body_len: u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")),
        }
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

/// Serialize a task into a fixed-size slot buffer: the header, then the
/// body borrowed from wherever the caller holds it.
pub(crate) fn encode_slot(slot: &mut [u8], header: &TaskHeader, body: &[u8]) {
    debug_assert_eq!(header.body_len as usize, body.len());
    header.encode(&mut slot[..HEADER_BYTES]);
    slot[HEADER_BYTES..HEADER_BYTES + body.len()].copy_from_slice(body);
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
        let mut buf = [0u8; HEADER_BYTES];
        h.encode(&mut buf);
        assert_eq!(TaskHeader::decode(&buf), h);
    }

    #[test]
    fn slot_roundtrip_with_short_body() {
        let header = TaskHeader {
            callback: 1,
            affinity: 0,
            creator: 2,
            body_len: 3,
        };
        let mut slot = vec![0xEEu8; 32];
        encode_slot(&mut slot, &header, &[9, 8, 7]);
        assert_eq!(decode_slot(&slot), (header, &[9u8, 8, 7][..]));
        let back = TaskRecord::decode(&slot);
        assert_eq!(back.body, vec![9, 8, 7]);
        assert_eq!(back.header, header);
        // Bytes past the body are the slot's, not the task's.
        assert!(slot[HEADER_BYTES + 3..].iter().all(|&b| b == 0xEE));
    }

    #[test]
    fn task_body_reuse() {
        let mut t = Task::with_body_size(TaskHandle(0), 4);
        assert_eq!(t.body(), &[0, 0, 0, 0]);
        t.body_mut()[1] = 5;
        assert_eq!(t.body(), &[0, 5, 0, 0]);
    }
}
