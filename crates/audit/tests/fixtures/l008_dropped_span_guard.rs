//! Fixture: trips exactly CM-L008 (dropped-span-guard).
//!
//! `let _ =` drops the span guard at the end of the statement, so the
//! span records zero time and `build` runs outside it.

pub fn construct() {
    let _ = span!("construct");
    build();
}

fn build() {}
