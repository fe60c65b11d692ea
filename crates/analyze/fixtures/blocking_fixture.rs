//! Violation-seeded fixture for the `blocking_under_lock` rule: socket
//! I/O, a channel receive, a thread join, a sleep and a second-guard
//! Condvar wait made while a guard is live — next to the sanctioned
//! shapes, which must stay silent.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::Receiver;
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

struct Fx {
    fx_out: Mutex<Vec<u8>>,
    fx_other: Mutex<u32>,
    fx_cv: Condvar,
}

impl Fx {
    fn write_under_guard(&self, mut stream: &TcpStream) {
        let out = self.fx_out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = stream.write_all(&out);
    }

    fn recv_under_statement_guard(&self, rx: &Receiver<u8>) {
        self.fx_out.lock().unwrap_or_else(|e| e.into_inner()).push(rx.recv().unwrap_or(0));
    }

    fn join_under_scrutinee_guard(&self, handle: JoinHandle<()>) {
        if let Ok(_other) = self.fx_other.lock() {
            let _ = handle.join();
        }
    }

    fn sleep_under_guard(&self) {
        let _other = self.fx_other.lock();
        std::thread::sleep(Duration::from_millis(1));
    }

    fn wait_with_second_guard(&self) {
        let _other = self.fx_other.lock();
        let mut out = self.fx_out.lock().unwrap_or_else(|e| e.into_inner());
        while out.is_empty() {
            out = self.fx_cv.wait(out).unwrap_or_else(|e| e.into_inner());
        }
    }

    // Sanctioned: wait on the held guard, encode under it, write after.
    fn fine_writer(&self, mut stream: &TcpStream) {
        let mut buf = Vec::new();
        {
            let mut out = self.fx_out.lock().unwrap_or_else(|e| e.into_inner());
            while out.is_empty() {
                out = self.fx_cv.wait(out).unwrap_or_else(|e| e.into_inner());
            }
            buf.append(&mut out);
        }
        let _ = stream.write_all(&buf);
    }
}
