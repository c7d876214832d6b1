//! Fixture: justified waivers on lookup-only unordered collections and
//! on a binary's injected wall clock. Must produce zero findings.

use std::collections::HashMap;

pub struct Memo {
    // opclint: allow(unordered-iter): lookup-only memo (get/insert by
    // exact key); never iterated, so order cannot leak into results.
    table: HashMap<u64, f64>,
}

impl Memo {
    pub fn new() -> Self {
        Memo {
            // opclint: allow(unordered-iter): constructor of the lookup-only memo above.
            table: HashMap::new(),
        }
    }

    pub fn get(&self, k: u64) -> Option<f64> {
        self.table.get(&k).copied()
    }

    pub fn put(&mut self, k: u64, v: f64) {
        self.table.insert(k, v);
    }
}

pub fn report_clock() -> impl Fn() -> u128 {
    // opclint: allow(nondeterminism): a report's wall-clock column, kept out of every checksum.
    let t0 = std::time::Instant::now();
    move || t0.elapsed().as_millis()
}
