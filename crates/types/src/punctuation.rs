//! Punctuation datagrams: watermarks that flow through the network.
//!
//! Out-of-order streams need a signal that lets operators close windows
//! and prune state (Fernández-Moctezuma et al.; ROADMAP "out-of-order
//! streams and punctuation feedback"). COSMOS models that signal as a
//! first-class datagram: a [`Punctuation`] carries, for one stream, a
//! low-water promise — *no future datagram of this stream will carry a
//! timestamp at or below the watermark*. Punctuations route along the
//! same dissemination trees as data and are accounted on every link
//! they cross, exactly like tuples.

use crate::{StreamName, Timestamp};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A watermark datagram for one stream.
///
/// The emitter promises that every datagram of `stream` it will ever
/// publish after this punctuation has `timestamp > watermark`. Receivers
/// may close windows up to the watermark and evict state below it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Punctuation {
    /// The stream the promise is about.
    pub stream: StreamName,
    /// The low-water promise: no future datagram at or below this time.
    pub watermark: Timestamp,
}

impl Punctuation {
    /// Wire size in bytes of every punctuation: the 10-byte header a
    /// [`crate::Tuple`] carries (2-byte stream id, 8-byte timestamp),
    /// plus the 8-byte watermark.
    pub const WIRE_BYTES: usize = 18;

    /// Build a punctuation.
    pub fn new(stream: impl Into<StreamName>, watermark: Timestamp) -> Punctuation {
        Punctuation {
            stream: stream.into(),
            watermark,
        }
    }

    /// Wire size in bytes ([`Punctuation::WIRE_BYTES`]).
    pub fn size_bytes(&self) -> usize {
        Self::WIRE_BYTES
    }
}

impl fmt::Display for Punctuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wm({} ≤ {})", self.stream, self.watermark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_size() {
        let p = Punctuation::new("S", Timestamp(42));
        assert_eq!(p.stream.as_str(), "S");
        assert_eq!(p.watermark, Timestamp(42));
        assert_eq!(p.size_bytes(), 18);
    }

    #[test]
    fn display_names_stream_and_watermark() {
        let p = Punctuation::new("sensors_00", Timestamp(1_000));
        assert_eq!(p.to_string(), "wm(sensors_00 ≤ t1000)");
    }

    #[test]
    fn serde_round_trip() {
        let p = Punctuation::new("S", Timestamp(-7));
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<Punctuation>(&json).unwrap(), p);
    }
}
