//! Wattages, checked once where they enter the program: a command-line
//! flag or a lease message. Each is built only through a fallible `new`,
//! which `FromStr` and `Deserialize` call, and is the bare number on the
//! wire, so no message, journal line or artifact moves by a byte.

use serde::{DeError, Deserialize, Reader, Serialize};

macro_rules! wattage {
    ($(#[$doc:meta])* $name:ident($($derive:ident)?): $range:literal, |$w:ident| $admits:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, $($derive)?)]
        #[repr(transparent)]
        pub struct $name(f64);

        impl $name {
            #[doc = concat!("`w` watts, if `w` is ", $range, ". `-0.0` becomes `0.0`.")]
            pub fn new($w: f64) -> Result<Self, String> {
                if $admits {
                    return Ok(Self($w.abs()));
                }
                Err(format!(concat!("{} W is not ", $range), $w))
            }

            /// The wattage, W.
            pub fn get(self) -> f64 {
                self.0
            }
        }

        impl std::str::FromStr for $name {
            type Err = String;

            fn from_str(s: &str) -> Result<Self, String> {
                Self::new(s.parse().map_err(|_| format!("'{s}' is not a number"))?)
            }
        }

        impl Deserialize for $name {
            fn read(r: &mut Reader<'_>) -> Result<Self, DeError> {
                Self::new(f64::read(r)?).map_err(DeError::new)
            }
        }
    };
}

wattage! {
    /// Watts that are finite and not negative: a demand or a budget.
    Watts(Default): "finite and at least 0", |w| w.is_finite() && w >= 0.0
}

wattage! {
    /// Watts that are finite and positive: a cap or a floor.
    Cap(): "finite and above 0", |w| w.is_finite() && w > 0.0
}

impl From<Cap> for Watts {
    fn from(cap: Cap) -> Self {
        Watts(cap.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_wattage_admits_its_range_through_every_door() {
        let (tiny, max) = (f64::from_bits(1), f64::MAX);
        // A value, its text (which Rust and the JSON codec both read as
        // that value), and what `Watts` and `Cap` make of it.
        let cases = [
            (-0.0, "-0", Some(0.0), None),
            (0.0, "0", Some(0.0), None),
            (-1.0, "-1", None, None),
            (tiny, "5e-324", Some(tiny), Some(tiny)),
            (max, "1.7976931348623157e308", Some(max), Some(max)),
            (f64::INFINITY, "1e999", None, None),
            (f64::NEG_INFINITY, "-1e999", None, None),
            (f64::NAN, "NaN", None, None),
        ];
        for (w, text, watts, cap) in cases {
            let bits = |w: Option<f64>| w.map(f64::to_bits);
            let expected = bits(watts);
            assert_eq!(bits(Watts::new(w).ok().map(Watts::get)), expected, "new({w})");
            assert_eq!(bits(text.parse().ok().map(Watts::get)), expected, "{text}");
            let decoded = serde_json::from_str(text).ok().map(Watts::get);
            assert_eq!(bits(decoded), expected, "decode {text}");
            let expected = bits(cap);
            assert_eq!(bits(Cap::new(w).ok().map(Cap::get)), expected, "new({w})");
            assert_eq!(bits(text.parse().ok().map(Cap::get)), expected, "{text}");
            let decoded = serde_json::from_str(text).ok().map(Cap::get);
            assert_eq!(bits(decoded), expected, "decode {text}");
        }
        let cap = Cap::new(119.99999999999999).unwrap();
        assert_eq!(serde_json::to_string(&cap).unwrap(), "119.99999999999999");
        assert_eq!(serde_json::to_string(&Watts::from(cap)).unwrap(), "119.99999999999999");
        let refused = serde_json::from_str::<Cap>("0").unwrap_err().to_string();
        assert_eq!(refused, "0 W is not finite and above 0");
    }
}
