//! Flag handling shared by the `pmc-serve` and `pmc-router` binaries.

/// The value after the first `flag` in `args`, if any.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Rejects every argument that is not a known flag: each of
/// `value_flags` must be followed by its value, each of `bool_flags`
/// stands alone, and flags may repeat. A misspelled or retired flag
/// must stop the process, not leave a default in its place.
pub fn check_flags(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if value_flags.contains(&arg) {
            if i + 1 == args.len() {
                return Err(format!("{arg} needs a value"));
            }
            i += 2;
        } else if bool_flags.contains(&arg) {
            i += 1;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        } else {
            return Err(format!("unexpected argument {arg:?}"));
        }
    }
    Ok(())
}
