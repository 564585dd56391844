//! Mutations of a JSON rendering for the decoder fuzz tests: byte
//! flips, truncations, duplicated spans, deep nesting and numbers past
//! `u64::MAX`. Shared by `oracle_alloc.rs` and todr-check's artifact
//! fuzz test, which includes this file by path.

use serde::json::MAX_DEPTH;
use todr_sim::SimRng;

/// What a flipped byte becomes, most of the time: a character that
/// steers the parser (structure, numbers, escapes, literals).
const FLIP_TO: &[u8] = b"[]{}\",:-+.eE0123456789 \\ntrufals";

/// Numbers no integer field holds, and floats past `f64`.
const HUGE: [&str; 5] = [
    "18446744073709551616",
    "99999999999999999999999999999",
    "-9223372036854775809",
    "1e999",
    "-0.5e-99999",
];

/// Applies one mutation to `json`.
pub fn mutate_json(rng: &mut SimRng, json: &mut Vec<u8>) {
    let at = |rng: &mut SimRng, json: &Vec<u8>| rng.gen_range(json.len() as u64 + 1) as usize;
    match rng.gen_range(5) {
        0 => {
            for _ in 0..1 + rng.gen_range(3) {
                let i = at(rng, json);
                if i < json.len() {
                    json[i] = match rng.gen_bool(0.8) {
                        true => *rng.choose(FLIP_TO).unwrap_or(&b'0'),
                        false => rng.next_u64() as u8,
                    };
                }
            }
        }
        1 => {
            let len = at(rng, json);
            json.truncate(len);
        }
        2 => {
            let (a, b) = (at(rng, json), at(rng, json));
            let span = json[a.min(b)..a.max(b)].to_vec();
            let k = at(rng, json);
            json.splice(k..k, span);
        }
        3 => {
            let depths = [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 100_000];
            let depth = *rng.choose(&depths).unwrap_or(&1);
            if rng.gen_bool(0.5) {
                // The whole document one level down per bracket pair.
                let mut wrapped = b"[".repeat(depth);
                wrapped.append(json);
                wrapped.extend(b"]".repeat(depth));
                *json = wrapped;
            } else {
                let open: &[u8] = if rng.gen_bool(0.5) { b"[" } else { b"{\"a\":" };
                let k = at(rng, json);
                json.splice(k..k, open.repeat(depth));
            }
        }
        _ => {
            // The first digit run at or after a random byte.
            let from = at(rng, json);
            let Some(start) = json[from..].iter().position(u8::is_ascii_digit) else {
                return;
            };
            let start = from + start;
            let end = json[start..]
                .iter()
                .position(|b| !b.is_ascii_digit())
                .map_or(json.len(), |i| start + i);
            let huge = rng.choose(&HUGE).unwrap_or(&HUGE[0]);
            json.splice(start..end, huge.bytes());
        }
    }
}
