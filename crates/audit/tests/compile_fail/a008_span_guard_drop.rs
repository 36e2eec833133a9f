//! Retired CM-A008 (span-guard-escape): a span guard dropped out of
//! LIFO order. `span!` binds its guard under a hygienic name, so no
//! caller can name it to drop, forget, return or store it.
//! expect: E0425

pub fn trace_phases() {
    cubemesh_obs::span!("outer");
    cubemesh_obs::span!("inner");
    drop(_span_guard);
}
