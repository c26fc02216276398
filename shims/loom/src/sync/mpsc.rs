//! Bounded channels with scheduling points on the send/recv edges.
//!
//! Real loom has no `mpsc` module — models there hand-build channels from
//! loom primitives. This shim extension instead mirrors the exact
//! `std::sync::mpsc` subset that `lsm::sync_shim`, the workspace's one
//! loom switch, re-exports beside its locks, so the pipeline
//! code is byte-identical under `cfg(loom)` and `cfg(not(loom))` and the
//! models exercise the very channel protocol production runs.

pub use std::sync::mpsc::{RecvError, SendError, TryRecvError, TrySendError};

/// Creates a bounded channel of depth `bound`.
pub fn sync_channel<T>(bound: usize) -> (SyncSender<T>, Receiver<T>) {
    let (tx, rx) = std::sync::mpsc::sync_channel(bound);
    (SyncSender { inner: tx }, Receiver { inner: rx })
}

/// Sending half of a bounded channel.
pub struct SyncSender<T> {
    inner: std::sync::mpsc::SyncSender<T>,
}

impl<T> Clone for SyncSender<T> {
    fn clone(&self) -> Self {
        SyncSender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> SyncSender<T> {
    /// Blocking send; fails once the receiver is dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        crate::sched_point();
        let r = self.inner.send(value);
        crate::sched_point();
        r
    }

    /// Non-blocking send.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        crate::sched_point();
        self.inner.try_send(value)
    }
}

/// Receiving half of a bounded channel.
pub struct Receiver<T> {
    inner: std::sync::mpsc::Receiver<T>,
}

impl<T> Receiver<T> {
    /// Blocking receive; fails once every sender is dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        crate::sched_point();
        let r = self.inner.recv();
        crate::sched_point();
        r
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        crate::sched_point();
        self.inner.try_recv()
    }

    /// Blocking iterator over received values, ending at disconnect.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }
}

/// Iterator returned by [`Receiver::iter`].
pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}
