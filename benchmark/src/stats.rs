//! Order statistics, the output digest and JSON formatting.

use std::fmt::Write as _;

use symbreak_congest::CostAccount;

/// The median of `xs` (the mean of the middle two for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A 64-bit FNV-1a digest of everything a pass outputs: colourings, MIS
/// memberships, measurement rows and every per-phase cost entry.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one integer.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Feeds a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Feeds a colouring (`u64::MAX` marks an uncoloured node).
    pub fn colors(&mut self, colors: &[Option<u64>]) {
        self.u64(colors.len() as u64);
        for c in colors {
            self.u64(c.unwrap_or(u64::MAX));
        }
    }

    /// Feeds an MIS membership vector.
    pub fn membership(&mut self, in_set: &[bool]) {
        self.u64(in_set.len() as u64);
        for &b in in_set {
            self.bytes(&[u8::from(b)]);
        }
    }

    /// Feeds every phase of a cost account: label, simulated and charged
    /// messages and rounds.
    pub fn costs(&mut self, costs: &CostAccount) {
        for (label, c) in costs.phases() {
            self.str(label);
            self.u64(c.simulated_messages);
            self.u64(c.simulated_rounds);
            self.u64(c.charged_messages);
            self.u64(c.charged_rounds);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Builds a flat JSON object field by field.
#[derive(Debug, Default)]
pub struct JsonObject {
    out: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn key(&mut self, key: &str) {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        let _ = write!(self.out, "\"{key}\":");
    }

    /// Adds a number, printed with all its digits (non-finite as `null`).
    pub fn num(&mut self, key: &str, x: f64) -> &mut Self {
        self.key(key);
        if x.is_finite() {
            let _ = write!(self.out, "{x}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Adds an integer.
    pub fn int(&mut self, key: &str, x: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{x}");
        self
    }

    /// Adds a boolean.
    pub fn bool(&mut self, key: &str, b: bool) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{b}");
        self
    }

    /// Adds a string (the benchmark's strings need no escaping beyond
    /// quotes and backslashes).
    pub fn str(&mut self, key: &str, s: &str) -> &mut Self {
        self.key(key);
        let escaped = s.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(self.out, "\"{escaped}\"");
        self
    }

    /// Adds an already-formatted JSON value.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(json);
        self
    }

    /// The finished object.
    pub fn finish(&self) -> String {
        if self.out.is_empty() {
            "{}".into()
        } else {
            format!("{}}}", self.out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn json_object_formats_fields() {
        let mut o = JsonObject::new();
        o.num("x", 1.5)
            .int("n", 3)
            .bool("ok", true)
            .str("s", "a\"b");
        assert_eq!(o.finish(), r#"{"x":1.5,"n":3,"ok":true,"s":"a\"b"}"#);
        o.num("nan", f64::NAN);
        assert!(o.finish().ends_with("\"nan\":null}"));
    }
}
