//! Fixture workspace test: a read-only A003 caller file. Naming `step`
//! here keeps the sim crate's only public fn A003-clean. Never compiled.

#[test]
fn steps() {
    assert_eq!(simx::step(&[1]), 1);
}
