//! The clock every gated host-time metric is read from: CPU time of the
//! whole process.
//!
//! The benchmark runs on virtual machines whose vCPUs the host takes away
//! for seconds at a time, in bursts lasting a minute or two (steal time:
//! up to a seventh of a run). Wall-clock time counts those stretches as
//! the program's, so a run that falls in a burst reads 20–30% slower, and
//! a request–response server several times slower. The kernel's process
//! CPU clock counts only the time a thread of this process actually ran,
//! so it leaves steal out (Linux subtracts it when paravirtual steal
//! accounting is on), as well as the time other processes of the machine
//! ran instead.
//!
//! Standard Rust has no CPU clock and the repository uses no `libc`, so
//! this issues `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` directly.

use std::time::Duration;

/// CPU time used so far by every thread of this process, exited threads
/// included.
pub fn process_cpu() -> Result<Duration, String> {
    let [secs, nanos] = clock_gettime_process_cputime()?;
    let secs = u64::try_from(secs).map_err(|_| format!("negative CPU time {secs} s"))?;
    let nanos = u32::try_from(nanos).map_err(|_| format!("CPU time has {nanos} ns"))?;
    Ok(Duration::new(secs, nanos))
}

/// Runs `f`; returns its output and the process CPU time it took, the
/// work of every other thread of the process meanwhile included.
pub fn on_cpu<T>(f: impl FnOnce() -> T) -> Result<(T, Duration), String> {
    let start = process_cpu()?;
    let value = f();
    Ok((value, process_cpu()?.saturating_sub(start)))
}

/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` as `[tv_sec, tv_nsec]`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn clock_gettime_process_cputime() -> Result<[i64; 2], String> {
    const SYS_CLOCK_GETTIME: i64 = 228;
    const CLOCK_PROCESS_CPUTIME_ID: i64 = 2;
    let mut ts = [0i64; 2];
    let ret: i64;
    // SAFETY: clock_gettime writes one `struct timespec` — two i64 on
    // x86-64 Linux — through the pointer in rsi, which points at `ts`,
    // valid and aligned for that write and alive across the call. The
    // `syscall` instruction clobbers only rax (the result), rcx and r11,
    // all declared, and uses no stack.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") CLOCK_PROCESS_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret != 0 {
        return Err(format!(
            "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed: {ret}"
        ));
    }
    Ok(ts)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn clock_gettime_process_cputime() -> Result<[i64; 2], String> {
    Err("bcache-bench reads the process CPU clock on x86-64 Linux only".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_counts_work_and_not_sleep() {
        let start = process_cpu().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let slept = process_cpu().unwrap() - start;
        assert!(slept < Duration::from_millis(25), "sleeping used {slept:?}");
        // Work on another thread counts, after it exits.
        std::thread::spawn(|| {
            let t = std::time::Instant::now();
            while t.elapsed() < Duration::from_millis(60) {
                std::hint::black_box(t.elapsed());
            }
        })
        .join()
        .unwrap();
        let worked = process_cpu().unwrap() - start;
        assert!(
            worked >= Duration::from_millis(20),
            "working used {worked:?}"
        );
    }
}
