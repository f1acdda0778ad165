//! Stackful fibers: what carries a virtual-time rank.
//!
//! A virtual-time machine runs every simulated rank as a *fiber* — a resumable
//! call stack on the heap — inside one OS thread. A context switch is six
//! callee-saved register pushes, two stack-pointer moves and six pops
//! (~20 ns), versus the microseconds a parked-thread handoff costs in
//! futex traffic; that three-orders-of-magnitude gap is what makes
//! 1024-rank machines practical on a single core.
//!
//! The switch is hand-written for unix x86_64 and aarch64; any other
//! target fails to compile here rather than at run time. A committed
//! golden, recorded from the parked-thread carrier this replaced, pins
//! that the switch reproduces its scheduling exactly (`machine.rs` tests).
//!
//! Protocol (enforced by `machine::run_fibers` + `Kernel`):
//!
//! * Exactly one context is live at a time: the machine's *main* context
//!   or one fiber. Switches happen only at kernel scheduling points
//!   (`yield_point`, `block`, `finish`, initial dispatch).
//! * A fiber's task closure runs to completion and *returns* — unwinding
//!   or returning through every frame it created, dropping everything it
//!   owns — before the fiber is marked completed and the exit hook runs.
//!   Frames abandoned on a completed fiber's stack therefore own nothing.
//! * A completed fiber is never re-dispatched. Never-started fibers never
//!   run; their task boxes drop normally with the [`FiberSet`].
//!
//! No std::sync, no wall clock, no allocation after construction: switching
//! is pure register shuffling, so determinism is trivially preserved.
//!
//! The one module allowed `unsafe` throughout (`global_asm!` is a
//! module-level item); every block and impl carries a `SAFETY:` comment.
#![allow(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::mem::MaybeUninit;

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!(
    "scioto-sim runs virtual-time ranks as fibers, whose context switch exists \
     for unix x86_64 and unix aarch64 only"
);

// x86_64 SysV: callee-saved integer registers are rbp, rbx, r12-r15 (xmm
// registers are caller-saved, so a cooperative switch may skip them). The
// saved frame is [r15][r14][r13][r12][rbx][rbp][return address] from the
// stack pointer up.
#[cfg(all(unix, target_arch = "x86_64"))]
core::arch::global_asm!(
    ".text",
    ".hidden scioto_fiber_switch",
    ".globl scioto_fiber_switch",
    ".type scioto_fiber_switch, @function",
    "scioto_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size scioto_fiber_switch, . - scioto_fiber_switch",
);

// AArch64 AAPCS: callee-saved are x19-x28, the frame/link pair x29/x30 and
// the low halves of v8-v15 (d8-d15). `ret` branches to the restored x30.
#[cfg(all(unix, target_arch = "aarch64"))]
core::arch::global_asm!(
    ".text",
    ".hidden scioto_fiber_switch",
    ".globl scioto_fiber_switch",
    "scioto_fiber_switch:",
    "sub sp, sp, #176",
    "stp x19, x20, [sp, #0]",
    "stp x21, x22, [sp, #16]",
    "stp x23, x24, [sp, #32]",
    "stp x25, x26, [sp, #48]",
    "stp x27, x28, [sp, #64]",
    "stp x29, x30, [sp, #80]",
    "stp d8, d9, [sp, #96]",
    "stp d10, d11, [sp, #112]",
    "stp d12, d13, [sp, #128]",
    "stp d14, d15, [sp, #144]",
    "mov x9, sp",
    "str x9, [x0]",
    "mov sp, x1",
    "ldp x19, x20, [sp, #0]",
    "ldp x21, x22, [sp, #16]",
    "ldp x23, x24, [sp, #32]",
    "ldp x25, x26, [sp, #48]",
    "ldp x27, x28, [sp, #64]",
    "ldp x29, x30, [sp, #80]",
    "ldp d8, d9, [sp, #96]",
    "ldp d10, d11, [sp, #112]",
    "ldp d12, d13, [sp, #128]",
    "ldp d14, d15, [sp, #144]",
    "add sp, sp, #176",
    "ret",
);

extern "C" {
    /// Save the current callee-saved frame, store the resulting stack
    /// pointer through `save`, switch to `restore` and pop its frame.
    /// Returns (on the *new* stack) when some later switch restores `save`.
    fn scioto_fiber_switch(save: *mut usize, restore: usize);
}

/// Number of `usize` slots in a bootstrap frame (saved registers + entry
/// address + one zeroed slot that both terminates backtraces and, on
/// x86_64, gives `fiber_entry` the SysV `rsp % 16 == 8` alignment a
/// function entry expects).
#[cfg(target_arch = "x86_64")]
const BOOT_SLOTS: usize = 8;
#[cfg(not(target_arch = "x86_64"))]
const BOOT_SLOTS: usize = 176 / 8;

/// Offset (in `usize` slots, from the frame base) of the slot the switch
/// transfers control through: the `ret` target on x86_64, the restored
/// link register x30 on aarch64.
#[cfg(target_arch = "x86_64")]
const ENTRY_SLOT: usize = 6;
#[cfg(not(target_arch = "x86_64"))]
const ENTRY_SLOT: usize = 88 / 8;

struct Fiber {
    /// Saved stack pointer while suspended; points into `stack`.
    sp: Cell<usize>,
    /// The heap stack. Boxed so it never moves; `sp` and every frame on it
    /// stay valid for the life of the fiber. Allocated uninitialised: a
    /// stack is only ever read where the running code has already written
    /// (the bootstrap frame below, then whatever frames the fiber pushes),
    /// and Rust never looks at it through this field — it exists to own
    /// and free the allocation — so the host pays for the pages a rank's
    /// call depth reaches, not for `stack_size` bytes of zeros per rank.
    #[allow(dead_code)]
    stack: Box<[MaybeUninit<u8>]>,
    /// The rank program, consumed on first dispatch.
    task: RefCell<Option<Box<dyn FnOnce()>>>,
    started: Cell<bool>,
    completed: Cell<bool>,
}

/// One machine run's worth of fibers plus the main (dispatcher) context.
///
/// Not `Send`/`Sync` (interior `Cell`s, raw stack pointers): the whole set
/// lives and dies on the machine's main thread. The `Kernel` never stores
/// one; fibers are reached through the thread-local installed by
/// [`enter`], which is what keeps `Kernel: Sync` intact.
pub(crate) struct FiberSet {
    fibers: Vec<Fiber>,
    /// Saved stack pointer of the main context while a fiber runs.
    main_sp: Cell<usize>,
    /// Index of the currently running fiber, `None` in the main context.
    current: Cell<Option<usize>>,
    /// Called on the fiber after its task returns (`run_fibers` hangs
    /// `kernel.finish(rank)` here). Stored as a raw-pointer-callable box so
    /// the suspended exit frame owns nothing (see module protocol).
    exit: RefCell<Option<ExitHook>>,
}

/// What [`FiberSet::set_exit`] installs: called with the finished fiber's
/// index.
type ExitHook = Box<dyn Fn(usize)>;

impl FiberSet {
    /// Build `n` fibers, each with a `stack_size`-byte stack primed to run
    /// [`fiber_entry`] on first switch.
    pub(crate) fn new(n: usize, stack_size: usize) -> FiberSet {
        // Room for the bootstrap frame, a panic payload and libstd's
        // unwinding machinery even if the caller asks for something tiny.
        let stack_size = stack_size.max(32 * 1024);
        let fibers = (0..n)
            .map(|_| {
                let mut stack = Box::<[u8]>::new_uninit_slice(stack_size);
                let base = stack.as_mut_ptr() as usize;
                // 16-align the top, then lay the bootstrap frame under it.
                let top = (base + stack.len()) & !15;
                let frame = top - BOOT_SLOTS * 8;
                // The stores below are the only initialisation the stack
                // gets: they cover every byte the first switch pops, and
                // everything under them is written by the fiber's own
                // frames before it is read.
                // SAFETY: `frame..top` lies inside the freshly boxed stack
                // and is 8-aligned, so these raw stores (which need no
                // initialised destination) stay in memory this Fiber owns.
                unsafe {
                    let slots = frame as *mut usize;
                    for i in 0..BOOT_SLOTS {
                        *slots.add(i) = 0;
                    }
                    *slots.add(ENTRY_SLOT) = fiber_entry as *const () as usize;
                }
                Fiber {
                    sp: Cell::new(frame),
                    stack,
                    task: RefCell::new(None),
                    started: Cell::new(false),
                    completed: Cell::new(false),
                }
            })
            .collect();
        FiberSet {
            fibers,
            main_sp: Cell::new(0),
            current: Cell::new(None),
            exit: RefCell::new(None),
        }
    }

    /// Install fiber `idx`'s task.
    ///
    /// # Safety
    /// The closure is lifetime-erased: the caller must guarantee every
    /// started fiber runs to completion (normally or by unwinding) before
    /// anything the closure borrows — or this `FiberSet` — is dropped.
    pub(crate) unsafe fn set_task<'a>(&mut self, idx: usize, task: Box<dyn FnOnce() + 'a>) {
        // SAFETY: pure lifetime erasure on the box's trait-object type;
        // the caller upholds the outlives contract documented above.
        let erased: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(task) };
        *self.fibers[idx].task.borrow_mut() = Some(erased);
    }

    /// Install the exit hook run after each fiber's task returns.
    ///
    /// # Safety
    /// Same lifetime-erasure contract as [`FiberSet::set_task`].
    pub(crate) unsafe fn set_exit<'a>(&mut self, exit: Box<dyn Fn(usize) + 'a>) {
        // SAFETY: pure lifetime erasure, same contract as `set_task`.
        let erased: Box<dyn Fn(usize) + 'static> = unsafe { std::mem::transmute(exit) };
        *self.exit.borrow_mut() = Some(erased);
    }

    /// Suspend the current context and resume fiber `idx`.
    ///
    /// Callable from the main context or from another fiber. Returns when
    /// something switches back here.
    pub(crate) fn switch_to_fiber(&self, idx: usize) {
        let prev = self.current.replace(Some(idx));
        debug_assert_ne!(prev, Some(idx), "fiber switched to itself");
        debug_assert!(!self.fibers[idx].completed.get(), "resumed a completed fiber");
        self.fibers[idx].started.set(true);
        let save = match prev {
            Some(p) => self.fibers[p].sp.as_ptr(),
            None => self.main_sp.as_ptr(),
        };
        // SAFETY: `save` points at a live sp cell owned by this set, and
        // the target sp is either fiber `idx`'s primed bootstrap frame or
        // the frame a previous switch parked; the shim only swaps stacks.
        unsafe { scioto_fiber_switch(save, self.fibers[idx].sp.get()) };
        // Back on `prev`'s stack: restore the current marker the resumer
        // overwrote with its own index.
        self.current.set(prev);
    }

    /// Suspend the current fiber and resume the main context.
    pub(crate) fn switch_to_main(&self) {
        let prev = self
            .current
            .replace(None)
            .expect("switch_to_main from the main context");
        // SAFETY: the current fiber's sp cell is live, and `main_sp` holds
        // the frame the main context parked in `enter`'s initial switch.
        unsafe { scioto_fiber_switch(self.fibers[prev].sp.as_ptr(), self.main_sp.get()) };
        self.current.set(Some(prev));
    }

    /// Lowest-index fiber that has started but not completed, if any —
    /// the poison-cleanup loop resumes these so they unwind.
    pub(crate) fn first_suspended(&self) -> Option<usize> {
        (0..self.fibers.len())
            .find(|&i| self.fibers[i].started.get() && !self.fibers[i].completed.get())
    }
}

thread_local! {
    /// The `FiberSet` of the machine currently running on this thread.
    /// Installed by [`enter`]; read by the kernel's fiber paths via
    /// [`with_active`]. A raw pointer so `Kernel` itself stays `Sync`.
    static ACTIVE: Cell<*const FiberSet> = const { Cell::new(std::ptr::null()) };
}

/// Install `fs` as this thread's active fiber set for the duration of `f`
/// (restoring the previous value on exit, so machines may nest).
pub(crate) fn enter<R>(fs: &FiberSet, f: impl FnOnce() -> R) -> R {
    struct Restore(*const FiberSet);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|a| a.set(self.0));
        }
    }
    let prev = ACTIVE.with(|a| a.replace(fs as *const FiberSet));
    let _restore = Restore(prev);
    f()
}

/// Run `f` against the active fiber set. Panics outside [`enter`].
pub(crate) fn with_active<R>(f: impl FnOnce(&FiberSet) -> R) -> R {
    let p = ACTIVE.with(|a| a.get());
    assert!(
        !p.is_null(),
        "fiber scheduling point outside a fiber machine"
    );
    // SAFETY: `p` was installed by `enter`, whose borrow of the FiberSet
    // is live for the whole dynamic extent of its closure — which is the
    // only place fibers (and thus this function) can run.
    f(unsafe { &*p })
}

/// First frame of every fiber: runs the task to completion, marks the
/// fiber done, then hands off via the exit hook. Reached by `ret`/`ret
/// x30` from the bootstrap frame, so it must never return or unwind.
extern "C" fn fiber_entry() -> ! {
    let outcome = std::panic::catch_unwind(|| {
        with_active(|fs| {
            let idx = fs.current.get().expect("fiber entry with no current fiber");
            let task = fs.fibers[idx]
                .task
                .borrow_mut()
                .take()
                .expect("fiber dispatched twice");
            // The task (and everything it owns) drops inside this call —
            // nothing may remain owned by this stack once it returns.
            task();
            fs.fibers[idx].completed.set(true);
            // Call the exit hook through a raw pointer: a cloned owner
            // held by this (about-to-be-abandoned) frame would leak.
            let exit: Option<*const dyn Fn(usize)> =
                fs.exit.borrow().as_deref().map(|e| e as *const _);
            if let Some(e) = exit {
                // SAFETY: the hook box lives in the FiberSet, which
                // outlives every fiber switch (see `enter`).
                unsafe { (*e)(idx) };
            }
        });
    });
    if outcome.is_err() {
        // `run_fibers`' tasks wrap rank programs in their own catch_unwind;
        // a panic reaching this frame means the machine itself is broken,
        // and there is nothing below us to unwind into but raw asm.
        eprintln!("scioto-sim fiber: panic escaped the machine boundary; aborting");
        std::process::abort();
    }
    // The exit hook declined to switch away (e.g. a test with no hook):
    // park on the main context forever. Re-dispatching a completed fiber
    // is a scheduler bug and asserts in switch_to_fiber.
    loop {
        with_active(|fs| fs.switch_to_main());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn fibers_interleave_and_complete() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut fs = FiberSet::new(2, 64 * 1024);
        for i in 0..2 {
            let log = Rc::clone(&log);
            let task = Box::new(move || {
                log.borrow_mut().push((i, 0));
                with_active(|fs| fs.switch_to_main());
                log.borrow_mut().push((i, 1));
            });
            // SAFETY: both fibers run to completion inside `enter` below.
            unsafe { fs.set_task(i, task) };
        }
        enter(&fs, || {
            fs.switch_to_fiber(0); // runs (0,0), suspends
            fs.switch_to_fiber(1); // runs (1,0), suspends
            fs.switch_to_fiber(0); // runs (0,1), completes, parks
            fs.switch_to_fiber(1); // runs (1,1), completes, parks
        });
        assert_eq!(*log.borrow(), vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
        assert!(fs.fibers.iter().all(|f| f.completed.get()));
        assert_eq!(fs.first_suspended(), None);
    }

    #[test]
    fn exit_hook_runs_after_task_returns() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut fs = FiberSet::new(1, 64 * 1024);
        {
            let order = Rc::clone(&order);
            // SAFETY: the fiber runs to completion inside `enter` below.
            unsafe { fs.set_task(0, Box::new(move || order.borrow_mut().push("task"))) };
        }
        {
            let order = Rc::clone(&order);
            // SAFETY: the exit hook's borrows outlive the `enter` below.
            unsafe {
                fs.set_exit(Box::new(move |idx| {
                    order.borrow_mut().push("exit");
                    assert_eq!(idx, 0);
                    // Hand control back like the kernel's finish does.
                    with_active(|fs| fs.switch_to_main());
                }))
            };
        }
        enter(&fs, || fs.switch_to_fiber(0));
        assert_eq!(*order.borrow(), vec!["task", "exit"]);
        assert!(fs.fibers[0].completed.get());
    }

    #[test]
    fn fiber_to_fiber_switch_restores_current() {
        let mut fs = FiberSet::new(2, 64 * 1024);
        let seen = Rc::new(Cell::new(0usize));
        {
            let seen = Rc::clone(&seen);
            let task = Box::new(move || {
                // Direct fiber->fiber handoff, like a block dispatching
                // the next runnable rank.
                with_active(|fs| {
                    assert_eq!(fs.current.get(), Some(0));
                    fs.switch_to_fiber(1);
                });
                seen.set(seen.get() + 1);
            });
            // SAFETY: fiber 0 runs to completion inside `enter` below.
            unsafe { fs.set_task(0, task) };
        }
        {
            let seen = Rc::clone(&seen);
            let task = Box::new(move || {
                with_active(|fs| {
                    assert_eq!(fs.current.get(), Some(1));
                    fs.switch_to_main();
                });
                seen.set(seen.get() + 10);
            });
            // SAFETY: fiber 1 runs to completion inside `enter` below.
            unsafe { fs.set_task(1, task) };
        }
        enter(&fs, || {
            fs.switch_to_fiber(0); // 0 hands to 1, 1 parks to main
            fs.switch_to_fiber(1); // 1 finishes (+10), parks to main
            // Fiber 0 is still suspended inside its switch_to_fiber(1)
            // call; resume it the way the poison-cleanup loop would.
            while let Some(i) = fs.first_suspended() {
                fs.switch_to_fiber(i); // 0 finishes (+1)
            }
        });
        assert_eq!(seen.get(), 11);
        assert_eq!(fs.first_suspended(), None);
    }
}
