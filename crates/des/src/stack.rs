//! Agent stacks and the routine that switches between them.
//!
//! Every agent runs on a stack of its own, mapped at the agent's first
//! resume, on the thread that called [`Engine::run`](crate::Engine::run).
//! Passing control to another agent saves six callee-saved registers and
//! the stack pointer of the running context and loads those of the next
//! one: a few tens of nanoseconds, where waking another OS thread costs
//! a futex round trip and two context switches.
//!
//! # Layout
//!
//! A stack is one anonymous mapping (`mmap`, so its memory never comes from
//! the global allocator, whose recycled blocks glibc zeroes in full):
//!
//! ```text
//! low                                                              high
//! | guard page (PROT_NONE) | canary | ......... frames ... | header |
//! ```
//!
//! * The guard page turns an overflow into `SIGSEGV` instead of silent
//!   corruption of a neighbouring mapping.
//! * The canary word is checked whenever control leaves the stack; if it
//!   was overwritten, the process aborts with a message.
//! * The header holds the saved stack pointer while the context is
//!   suspended (null while it runs).
//!
//! # Invariants the engine keeps
//!
//! [`switch`] is safe to call because the engine guarantees, and this module
//! checks where it can:
//!
//! * the target context is suspended (checked: a running context has a
//!   null saved stack pointer) and its memory is still mapped — a stack is
//!   unmapped only after its agent returned from its body, never while the
//!   agent is parked;
//! * every switch happens on the thread that owns the target (checked at
//!   every switch, since an `AgentCtx` moved to another thread could
//!   otherwise try): no stack outlives the `Engine::run` that created it;
//! * no unwind crosses a switch: the agent body catches every panic before
//!   it returns to [`entry`], and `entry` is `extern "C"`, so an escaping
//!   panic aborts instead of unwinding into the trampoline.
//!
//! Only x86_64 Linux has a switch routine.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "sim-des runs agents on their own stacks and has a stack switch routine \
     (`stack::switch_raw`) for x86_64 Linux only; this target has none"
);

use std::arch::naked_asm;
use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::ptr::{self, NonNull};

/// Usable bytes per agent stack: std's default thread stack.
const STACK_BYTES: usize = 2 << 20;
/// The `PROT_NONE` page below each stack.
const GUARD_BYTES: usize = 4096;
/// The whole mapping.
const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;
/// Space reserved at the top of the mapping for the [`Header`].
const HEADER_BYTES: usize = 64;
const CANARY: u64 = 0x5afe_57ac_c0de_d00d;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x2_0000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

thread_local! {
    /// A finished agent's stack, unmapped by the next context to run.
    static DEAD: Cell<Option<Stack>> = const { Cell::new(None) };
    /// Stacks mapped by this thread and not yet unmapped.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// Its address identifies the calling thread (see [`this_thread`]).
    static MARK: u8 = const { 0 };
}

/// An identifier of the calling thread that is cheap to read: the address
/// of its `MARK`. Unique among live threads.
fn this_thread() -> usize {
    MARK.with(|m| ptr::from_ref(m) as usize)
}

/// What a context keeps while suspended.
struct Header {
    /// Saved stack pointer; null while the context runs.
    sp: Cell<*mut u8>,
    /// The stack's canary word; null for a thread's own stack.
    canary: *const u64,
    /// The only thread that may resume the context ([`this_thread`]).
    thread: usize,
}

impl Header {
    fn new(canary: *const u64) -> Header {
        Header {
            sp: Cell::new(ptr::null_mut()),
            canary,
            thread: this_thread(),
        }
    }

    fn check_canary(&self) {
        // SAFETY: a non-null `canary` points into the mapping of the stack
        // this header heads, which is mapped while its context can switch.
        if !self.canary.is_null() && unsafe { self.canary.read() } != CANARY {
            fatal("an agent overflowed its stack (the canary word at its low end was overwritten)");
        }
    }
}

/// A handle on an execution context: an agent stack or the thread stack of
/// an [`Engine::run`](crate::Engine::run) caller.
#[derive(Clone, Copy)]
pub(crate) struct Context(NonNull<Header>);

// SAFETY: a `Context` is an address; it is only switched to on the thread
// that owns it (checked in `switch`).
unsafe impl Send for Context {}

/// The context of a thread's own stack, for the duration of one run.
pub(crate) struct Home(Box<Header>);

impl Home {
    pub(crate) fn new() -> Home {
        Home(Box::new(Header::new(ptr::null())))
    }

    pub(crate) fn context(&self) -> Context {
        Context(NonNull::from(&*self.0))
    }
}

/// What an agent body returns when it is done: its own stack (unmapped
/// once control has left it) and the context to switch to for good.
pub(crate) type Exit = (Stack, Context);

/// The code an agent stack starts in.
pub(crate) type Body = Box<dyn FnOnce() -> Exit>;

/// One agent's stack mapping, owned by the engine's agent slot.
pub(crate) struct Stack {
    base: NonNull<u8>,
}

// SAFETY: the mapping is owned by this handle alone; it is unmapped on drop,
// never shared, and only ever run on its creating thread (see `switch`).
unsafe impl Send for Stack {}

impl Stack {
    /// Map a stack whose first resume runs `body`.
    pub(crate) fn new(body: Body) -> Stack {
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choice aliases no existing memory.
        let map = unsafe {
            mmap(
                ptr::null_mut(),
                MAP_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if map as isize == -1 {
            fatal("mapping an agent stack failed");
        }
        let base = map.cast::<u8>();
        // SAFETY: the guard page is the first page of the mapping just made.
        if unsafe { mprotect(map, GUARD_BYTES, PROT_NONE) } != 0 {
            fatal("protecting an agent stack's guard page failed");
        }
        LIVE.set(LIVE.get() + 1);
        // SAFETY: every address written below lies inside the writable part
        // of the fresh mapping, is suitably aligned (the mapping is page
        // aligned, all offsets are multiples of 8, `HEADER_BYTES` of 16) and
        // nothing else refers to it yet.
        unsafe {
            let canary = base.add(GUARD_BYTES).cast::<u64>();
            canary.write(CANARY);
            let top = base.add(MAP_BYTES);
            let header = top.sub(HEADER_BYTES).cast::<Header>();
            header.write(Header::new(canary));
            // The first switch to this stack pops six registers and returns
            // into `trampoline`, which calls `entry(body)` with the stack
            // aligned as at any call. The zero above that return address
            // and the zero `rbp` end the frame chain.
            let arg = Box::into_raw(Box::new(body));
            let frame: [usize; 8] = [
                0,                                // r15
                0,                                // r14
                0,                                // r13
                arg as usize,                     // r12: entry's argument
                entry as *const () as usize,      // rbx: entry
                0,                                // rbp
                trampoline as *const () as usize, // return address
                0,                                // trampoline's caller
            ];
            // `trampoline` starts with the stack pointer on the last word,
            // which must be 16-byte aligned for its call to be.
            let sp = top.sub(HEADER_BYTES + 16 + 7 * 8);
            sp.cast::<[usize; 8]>().write(frame);
            (*header).sp.set(sp);
        }
        Stack {
            // SAFETY: `mmap` succeeded, so `base` is not null.
            base: unsafe { NonNull::new_unchecked(base) },
        }
    }

    pub(crate) fn context(&self) -> Context {
        // SAFETY: the header lies inside the mapping this handle owns.
        Context(unsafe { self.base.add(MAP_BYTES - HEADER_BYTES).cast::<Header>() })
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is owned by this handle and no context runs on
        // it: a stack is dropped only once its agent has switched away for
        // good (see `entry`), or before it ever ran.
        if unsafe { munmap(self.base.as_ptr().cast(), MAP_BYTES) } != 0 {
            fatal("unmapping an agent stack failed");
        }
        LIVE.set(LIVE.get() - 1);
    }
}

/// Stacks this thread has mapped and not yet unmapped.
#[cfg(test)]
pub(crate) fn live_stacks() -> usize {
    LIVE.get()
}

/// Suspend the running context `from` and resume the suspended `to`.
/// Returns when some context switches back to `from`.
pub(crate) fn switch(from: Context, to: Context) {
    // SAFETY: both headers are live: `from` is the running context and the
    // engine switches only to contexts whose memory is mapped (module docs).
    let (from, to) = unsafe { (from.0.as_ref(), to.0.as_ref()) };
    from.check_canary();
    if to.thread != this_thread() {
        fatal("an agent handed off on a thread other than the one running its engine");
    }
    let sp = to.sp.replace(ptr::null_mut());
    if sp.is_null() {
        fatal("switch to an execution context that is not suspended");
    }
    // SAFETY: `sp` is the stack pointer `to` saved when it suspended (or
    // the initial frame `Stack::new` built), on memory that is still
    // mapped; `switch_raw` preserves every register the C ABI requires.
    unsafe { switch_raw(from.sp.as_ptr(), sp) };
    reap();
}

/// Unmap the stack of an agent that finished before control reached here.
fn reap() {
    drop(DEAD.take());
}

fn fatal(msg: &str) -> ! {
    eprintln!("sim-des: {msg}");
    std::process::abort()
}

/// The first code every agent stack runs (called by [`trampoline`]).
extern "C" fn entry(body: *mut Body) -> ! {
    reap();
    // SAFETY: `Stack::new` leaked this box for exactly this one call.
    let body = *unsafe { Box::from_raw(body) };
    let (stack, to) = body();
    let from = stack.context();
    DEAD.set(Some(stack));
    switch(from, to);
    fatal("a finished agent stack was resumed")
}

/// Save the callee-saved registers and the stack pointer of the running
/// context to `*save`, load the stack pointer `sp` and restore the
/// registers saved there.
#[unsafe(naked)]
unsafe extern "C" fn switch_raw(save: *mut *mut u8, sp: *mut u8) {
    naked_asm!(
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
    )
}

/// Bottom frame of every agent stack: calls `rbx(r12)`, which never
/// returns. Its CFI marks the return address undefined, so unwinders and
/// backtraces stop here.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call rbx",
        "ud2",
        ".cfi_endproc",
    )
}
