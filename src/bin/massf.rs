//! Thin shim over [`massf_repro::cli`].

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = massf_repro::cli::run(&args).map_err(|e| e.to_string());
    let done = done.and_then(|text| {
        write_output(&mut std::io::stdout().lock(), &text)
            .map_err(|e| format!("cannot write output: {e}"))
    });
    if let Err(e) = done {
        eprintln!("massf: {e}");
        std::process::exit(1);
    }
}

/// Writes `text` to `out` and flushes it. A reader that closed the pipe
/// (`massf topology brite | head -1`) wanted no more output, so a broken
/// pipe is success; any other write error is returned.
fn write_output(out: &mut impl Write, text: &str) -> std::io::Result<()> {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        done => done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose every write fails with `kind`.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_is_success_and_other_errors_are_not() {
        let mut sink = Vec::new();
        write_output(&mut sink, "a\nb").unwrap();
        assert_eq!(sink, b"a\nb");
        assert!(write_output(&mut Failing(ErrorKind::BrokenPipe), "x").is_ok());
        let e = write_output(&mut Failing(ErrorKind::PermissionDenied), "x").unwrap_err();
        assert_eq!(e.kind(), ErrorKind::PermissionDenied);
    }
}
