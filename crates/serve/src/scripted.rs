//! A scripted in-memory transport for unit tests: every `read` is answered
//! from a script and every call is logged, so a test can assert how many
//! reads and writes a conversation cost and in which order they happened.
//!
//! [`faulted`] writes the script from a seeded fault plan, so the wire
//! faults a peer can inflict (DESIGN.md §12) reach the real frame loop
//! without a socket, a thread or a sleep.

use crate::net::ReadReady;
use acs_sim::noise::SplitMix64;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};

/// What one `read` call finds.
pub(crate) enum Step {
    /// These bytes are ready (a shorter `read` leaves the rest for the next).
    Data(Vec<u8>),
    /// These bytes have already arrived: a read that does not wait takes
    /// them too. Without such steps the transport cannot be read without
    /// waiting, as a stream with no non-blocking read.
    Ready(Vec<u8>),
    /// The read timeout fires.
    Timeout,
}

/// One logged call.
#[derive(Debug, PartialEq)]
pub(crate) enum Event {
    Read,
    /// A read that did not wait, and found a [`Step::Ready`].
    ReadReady,
    Write(Vec<u8>),
}

/// The transport. An exhausted script reads as EOF, once: a reader that
/// comes back after EOF fails the test instead of spinning.
pub(crate) struct Scripted {
    steps: VecDeque<Step>,
    pub(crate) events: Vec<Event>,
    eof: bool,
}

impl Scripted {
    pub(crate) fn new(steps: impl IntoIterator<Item = Step>) -> Self {
        Self { steps: steps.into_iter().collect(), events: Vec::new(), eof: false }
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.events.push(Event::Read);
        match self.steps.pop_front() {
            None => {
                assert!(!std::mem::replace(&mut self.eof, true), "read again after EOF");
                Ok(0)
            }
            Some(Step::Timeout) => Err(ErrorKind::WouldBlock.into()),
            Some(Step::Data(bytes) | Step::Ready(bytes)) => Ok(self.deliver(bytes, buf)),
        }
    }
}

impl Scripted {
    /// Copy what fits of `bytes` into `buf`; the rest stays first in the
    /// script, as data a later read finds.
    fn deliver(&mut self, mut bytes: Vec<u8>, buf: &mut [u8]) -> usize {
        let n = bytes.len().min(buf.len());
        buf[..n].copy_from_slice(&bytes[..n]);
        if n < bytes.len() {
            self.steps.push_front(Step::Data(bytes.split_off(n)));
        }
        n
    }
}

impl ReadReady for Scripted {
    fn read_ready(&mut self, buf: &mut [u8]) -> usize {
        match self.steps.pop_front() {
            Some(Step::Ready(bytes)) => {
                self.events.push(Event::ReadReady);
                self.deliver(bytes, buf)
            }
            unready => {
                if let Some(step) = unready {
                    self.steps.push_front(step);
                }
                0
            }
        }
    }
}

impl Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.events.push(Event::Write(buf.to_vec()));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What the plan does to one frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Fault {
    /// Delivered whole.
    Clean,
    /// The script ends instead: the peer is gone.
    Disconnect,
    /// The header and half the body, then the script ends.
    Tear,
    /// One payload byte becomes `0xFF`, which is never valid UTF-8.
    Corrupt,
    /// One to three read timeouts, then the frame.
    Delay,
    /// The frame twice.
    Duplicate,
    /// One byte per read, with a read timeout between bytes.
    Dribble,
}

/// The script that delivers encoded `frames`, each under a fault drawn
/// uniformly from `faults` by a `SplitMix64` stream seeded with `seed`, and
/// the faults drawn, up to the one that ends the script.
pub(crate) fn faulted(frames: &[Vec<u8>], faults: &[Fault], seed: u64) -> (Vec<Step>, Vec<Fault>) {
    let mut rng = SplitMix64(seed);
    let (mut steps, mut drawn) = (Vec::new(), Vec::new());
    for frame in frames {
        let fault = faults[(rng.next_u64() % faults.len() as u64) as usize];
        drawn.push(fault);
        let data = |bytes: &[u8]| Step::Data(bytes.to_vec());
        match fault {
            Fault::Clean => steps.push(data(frame)),
            Fault::Disconnect => break,
            Fault::Tear => {
                steps.push(data(&frame[..4 + (frame.len() - 4) / 2]));
                break;
            }
            Fault::Corrupt => {
                let mut frame = frame.clone();
                let at = 4 + (rng.next_u64() % (frame.len() - 4) as u64) as usize;
                frame[at] = 0xFF;
                steps.push(Step::Data(frame));
            }
            Fault::Delay => {
                steps.extend((0..=rng.next_u64() % 3).map(|_| Step::Timeout));
                steps.push(data(frame));
            }
            Fault::Duplicate => steps.extend([data(frame), data(frame)]),
            Fault::Dribble => {
                for (at, byte) in frame.chunks(1).enumerate() {
                    steps.extend((at > 0).then_some(Step::Timeout));
                    steps.push(data(byte));
                }
            }
        }
    }
    (steps, drawn)
}
