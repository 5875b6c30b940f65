//! Starting, probing and stopping the program's processes, and the
//! blocking request/reply calls used outside the measured phases.

use pmc_json::Json;
use pmc_serve::protocol::{decode_binary_payload, encode_frame_as, Request};
use pmc_serve::Encoding;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Decodes a reply payload in either encoding.
pub fn decode_payload(payload: &[u8]) -> Result<Json, String> {
    if payload.starts_with(b"PMCB1") {
        decode_binary_payload(payload).map_err(|e| e.to_string())
    } else {
        let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        Json::parse(text).map_err(|e| e.to_string())
    }
}

/// Sends one request and reads its reply, blocking.
pub fn call(stream: &mut TcpStream, req: &Request, enc: Encoding) -> Result<Json, String> {
    let frame = encode_frame_as(&req.to_json_value(), enc).map_err(|e| e.to_string())?;
    stream
        .write_all(&frame)
        .map_err(|e| format!("write: {e}"))?;
    let mut len = [0u8; 4];
    stream
        .read_exact(&mut len)
        .map_err(|e| format!("read: {e}"))?;
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    stream
        .read_exact(&mut payload)
        .map_err(|e| format!("read: {e}"))?;
    decode_payload(&payload)
}

/// The `result` of an ok reply.
pub fn ok_result(reply: Json) -> Result<Json, String> {
    match reply.get("status").and_then(|s| s.as_str().ok()) {
        Some("ok") => Ok(reply.get("result").cloned().unwrap_or(Json::Null)),
        _ => Err(format!("error reply: {reply}")),
    }
}

/// One running server or router process.
pub struct Proc {
    pub name: String,
    pub addr: String,
    child: Child,
    // Held open: the program serves until its stdin closes, and keeps
    // a stdout it may still print to.
    stdin: Option<ChildStdin>,
    _stdout: BufReader<ChildStdout>,
}

impl Proc {
    /// Spawns `bin args…` and waits for its `listening on ADDR` line.
    /// Its stderr goes to `log`.
    pub fn spawn(name: &str, bin: &Path, args: &[String], log: &Path) -> Result<Proc, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "{name} exited before listening; see {}",
                        log.display()
                    ));
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("listening on ") {
                        if !a.starts_with("uds ") {
                            break a.to_string();
                        }
                    }
                }
            }
        };
        Ok(Proc {
            name: name.to_string(),
            addr,
            child,
            stdin,
            _stdout: stdout,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls `readyz` until the process reports ready.
    pub fn wait_ready(&self, timeout: Duration) -> Result<(), String> {
        let until = Instant::now() + timeout;
        let mut last = String::new();
        while Instant::now() < until {
            let probe = TcpStream::connect(&self.addr)
                .map_err(|e| e.to_string())
                .and_then(|mut s| call(&mut s, &Request::Readyz, Encoding::Json))
                .and_then(ok_result);
            match probe {
                Ok(r) if r.get("ready").and_then(|v| v.as_bool().ok()) == Some(true) => {
                    return Ok(())
                }
                Ok(r) => last = r.to_string(),
                Err(e) => last = e,
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(format!("{} not ready after {timeout:?}: {last}", self.name))
    }

    /// The Prometheus body of a `metrics` scrape.
    pub fn metrics(&self) -> Result<String, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        let r = ok_result(call(&mut s, &Request::Metrics, Encoding::Json)?)?;
        Ok(r.get("body")
            .and_then(|b| b.as_str().ok())
            .ok_or("metrics reply without body")?
            .to_string())
    }

    /// Closes stdin (graceful drain) and waits; kills after `patience`.
    pub fn stop(mut self, patience: Duration) {
        drop(self.stdin.take());
        let until = Instant::now() + patience;
        while Instant::now() < until {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // A process still running here was not stopped on purpose
        // (an error path): kill it so none outlives the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A counter or gauge from a Prometheus body (unlabelled series).
pub fn prom_value(body: &str, name: &str) -> f64 {
    body.lines()
        .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .find_map(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The program's processes for one workload: one server, or a router
/// in front of two checkpointing servers.
pub struct Topology {
    pub front: Proc,
    pub backends: Vec<Proc>,
}

/// Paths of the program binaries.
pub struct Bins {
    pub serve: PathBuf,
    pub router: PathBuf,
}

impl Topology {
    /// Starts the processes and waits until every one passes `readyz`.
    pub fn start(bins: &Bins, routed: bool, artifact: &Path, work: &Path) -> Result<Self, String> {
        let serve_args = |extra: &[String]| -> Vec<String> {
            let mut a: Vec<String> = [
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--model",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            a.push(artifact.display().to_string());
            a.extend_from_slice(extra);
            a
        };
        if !routed {
            let front = Proc::spawn(
                "pmc-serve",
                &bins.serve,
                &serve_args(&[]),
                &work.join("serve.log"),
            )?;
            front.wait_ready(Duration::from_secs(10))?;
            return Ok(Topology {
                front,
                backends: Vec::new(),
            });
        }
        let mut backends = Vec::new();
        let mut specs = Vec::new();
        for i in 1..=2 {
            let ckpt = work.join(format!("shard-{i}.ckpt"));
            let _ = std::fs::remove_file(&ckpt);
            let extra = vec!["--checkpoint".to_string(), ckpt.display().to_string()];
            let p = Proc::spawn(
                &format!("shard-{i}"),
                &bins.serve,
                &serve_args(&extra),
                &work.join(format!("shard-{i}.log")),
            )?;
            specs.push(format!("{},name=shard-{i},ckpt={}", p.addr, ckpt.display()));
            backends.push(p);
        }
        let mut args: Vec<String> = vec!["route".into(), "--addr".into(), "127.0.0.1:0".into()];
        for spec in specs {
            args.push("--backend".into());
            args.push(spec);
        }
        let front = Proc::spawn("pmc-router", &bins.router, &args, &work.join("router.log"))?;
        for b in &backends {
            b.wait_ready(Duration::from_secs(10))?;
        }
        front.wait_ready(Duration::from_secs(10))?;
        Ok(Topology { front, backends })
    }

    /// Every program process.
    pub fn procs(&self) -> impl Iterator<Item = &Proc> {
        std::iter::once(&self.front).chain(&self.backends)
    }

    /// The server processes (the backends behind a router).
    pub fn servers(&self) -> Vec<&Proc> {
        if self.backends.is_empty() {
            vec![&self.front]
        } else {
            self.backends.iter().collect()
        }
    }

    /// The router, if there is one.
    pub fn router(&self) -> Option<&Proc> {
        (!self.backends.is_empty()).then_some(&self.front)
    }

    /// Stops the front first so backends drain with no traffic left.
    pub fn stop(self) {
        self.front.stop(Duration::from_secs(5));
        for b in self.backends {
            b.stop(Duration::from_secs(5));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_lines_are_matched_by_exact_name() {
        let body = "# TYPE pmc_serve_batches_dispatched counter\n\
                    pmc_serve_batches_dispatched 12\n\
                    pmc_serve_batches_dispatched_total 99\n\
                    pmc_router_backend_up{backend=\"a\"} 1\n";
        assert_eq!(prom_value(body, "pmc_serve_batches_dispatched"), 12.0);
        assert_eq!(prom_value(body, "pmc_serve_missing"), 0.0);
    }

    #[test]
    fn payloads_decode_in_both_encodings() {
        let v = Json::obj(vec![
            ("status", Json::from("ok")),
            ("result", Json::from(1.5)),
        ]);
        for enc in [Encoding::Json, Encoding::Binary] {
            let frame = encode_frame_as(&v, enc).unwrap();
            let back = decode_payload(&frame[4..]).unwrap();
            assert_eq!(ok_result(back).unwrap(), Json::from(1.5));
        }
    }
}
