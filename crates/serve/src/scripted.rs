//! A scripted in-memory transport for unit tests: every `read` is answered
//! from a script and every call is logged, so a test can assert how many
//! reads and writes a conversation cost and in which order they happened.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};

/// What one `read` call finds.
pub(crate) enum Step {
    /// These bytes are ready (a shorter `read` leaves the rest for the next).
    Data(Vec<u8>),
    /// The read timeout fires.
    Timeout,
}

/// One logged call.
#[derive(Debug, PartialEq)]
pub(crate) enum Event {
    Read,
    Write(Vec<u8>),
}

/// The transport. An exhausted script reads as EOF.
pub(crate) struct Scripted {
    steps: VecDeque<Step>,
    pub(crate) events: Vec<Event>,
}

impl Scripted {
    pub(crate) fn new(steps: impl IntoIterator<Item = Step>) -> Self {
        Self { steps: steps.into_iter().collect(), events: Vec::new() }
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.events.push(Event::Read);
        match self.steps.pop_front() {
            None => Ok(0),
            Some(Step::Timeout) => Err(ErrorKind::WouldBlock.into()),
            Some(Step::Data(mut bytes)) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    self.steps.push_front(Step::Data(bytes.split_off(n)));
                }
                Ok(n)
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
