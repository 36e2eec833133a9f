//! Retired CM-L008 (dropped-span-guard): a span guard bound to `_`,
//! which would drop at the end of its statement. `span!` is a `let`
//! statement, so it cannot stand where an expression is expected.
//! expect: expected expression, found `let` statement

pub fn construct() {
    let _ = cubemesh_obs::span!("construct");
}
