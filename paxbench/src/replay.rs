//! The split below `VPm`: the same ops replayed through the public layer
//! types with timers at each boundary.
//!
//! [`Machine`] is built like `PaxPool::create` builds its engine — a
//! `PmPool`, a `PaxDevice` opened over the even tenant split, and a host
//! model that is one `CoherentCache` behind a mutex or a `SharedComplex`
//! — but every home-agent call goes through [`TimedHome`] and every
//! persist snoop through [`TimedSnoop`]. [`ReplaySpace`] is a `MemSpace`
//! that splits accesses into lines exactly as `VPm` does. Running the
//! same ops over it drives the device with the same request stream, so
//! its counters must equal the pool run's, and its timers split the
//! pool's access time into host cache and device.

use std::cell::RefCell;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

use libpax::{MemSpace, PaxConfig, PaxError};
use pax_cache::{CoherentCache, HomeAgent, HostSnoop, ShardedHome, SharedComplex};
use pax_device::{even_split, PaxDevice, TenantId};
use pax_pm::{CacheLine, LineAddr, PmError, PmPool, LINE_SIZE};

/// Home-agent request kinds, in [`ReplayStats::home_calls`] order.
pub const HOME_KINDS: [&str; 4] = ["rd_shared", "rd_own", "clean_evict", "dirty_evict"];

/// Timers and counts of one replay thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayStats {
    /// `MemSpace` calls.
    pub accesses: u64,
    /// Time inside host-model calls (a partial-line store is a load and
    /// a store), home-agent calls included.
    pub cache_ns: u64,
    /// Home-agent calls per kind.
    pub home_calls: [u64; 4],
    /// Time inside home-agent calls per kind.
    pub home_ns: [u64; 4],
    /// Time inside `persist_tenant`.
    pub persist_ns: u64,
    /// Time inside host snoop callbacks during persists.
    pub snoop_ns: u64,
}

impl ReplayStats {
    /// Adds another thread's stats into these.
    pub fn absorb(&mut self, o: &ReplayStats) {
        self.accesses += o.accesses;
        self.cache_ns += o.cache_ns;
        for i in 0..4 {
            self.home_calls[i] += o.home_calls[i];
            self.home_ns[i] += o.home_ns[i];
        }
        self.persist_ns += o.persist_ns;
        self.snoop_ns += o.snoop_ns;
    }

    /// Time inside home-agent calls, all kinds.
    pub fn home_ns_total(&self) -> u64 {
        self.home_ns.iter().sum()
    }
}

thread_local! {
    static STATS: RefCell<ReplayStats> = RefCell::new(ReplayStats::default());
}

fn stats(f: impl FnOnce(&mut ReplayStats)) {
    STATS.with(|s| f(&mut s.borrow_mut()));
}

/// Returns this thread's replay stats and resets them.
pub fn take_stats() -> ReplayStats {
    STATS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A home agent that times each request to the device it forwards to.
pub struct TimedHome<'a>(&'a PaxDevice);

impl TimedHome<'_> {
    fn timed<T>(&mut self, kind: usize, f: impl FnOnce(&mut &PaxDevice) -> T) -> T {
        let mut dev = self.0;
        let t = Instant::now();
        let out = f(&mut dev);
        let ns = ns_since(t);
        stats(|s| {
            s.home_calls[kind] += 1;
            s.home_ns[kind] += ns;
        });
        out
    }
}

impl HomeAgent for TimedHome<'_> {
    fn read_shared(&mut self, addr: LineAddr) -> pax_pm::Result<CacheLine> {
        self.timed(0, |d| d.read_shared(addr))
    }

    fn read_own(&mut self, addr: LineAddr) -> pax_pm::Result<CacheLine> {
        self.timed(1, |d| d.read_own(addr))
    }

    fn clean_evict(&mut self, addr: LineAddr) {
        self.timed(2, |d| d.clean_evict(addr))
    }

    fn dirty_evict(&mut self, addr: LineAddr, data: CacheLine) -> pax_pm::Result<()> {
        self.timed(3, |d| d.dirty_evict(addr, data))
    }
}

impl ShardedHome for TimedHome<'_> {
    fn shard_count(&self) -> usize {
        ShardedHome::shard_count(&self.0)
    }

    fn shard_of_line(&self, addr: LineAddr) -> usize {
        ShardedHome::shard_of_line(&self.0, addr)
    }
}

#[derive(Debug)]
enum Host {
    Single(Mutex<CoherentCache>),
    Multi(SharedComplex),
}

/// Persist-time snoops into the host model, timed.
pub struct TimedSnoop<'a>(&'a Host);

impl TimedSnoop<'_> {
    fn timed(&mut self, f: impl FnOnce(&Host) -> Option<CacheLine>) -> Option<CacheLine> {
        let t = Instant::now();
        let out = f(self.0);
        let ns = ns_since(t);
        stats(|s| s.snoop_ns += ns);
        out
    }
}

impl HostSnoop for TimedSnoop<'_> {
    fn snoop_shared(&mut self, addr: LineAddr) -> Option<CacheLine> {
        self.timed(|h| match h {
            Host::Single(c) => c.lock().expect("host cache lock poisoned").snoop_shared(addr),
            Host::Multi(cx) => cx.snoop_shared_all(addr),
        })
    }

    fn snoop_invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        self.timed(|h| match h {
            Host::Single(c) => c.lock().expect("host cache lock poisoned").snoop_invalidate(addr),
            Host::Multi(cx) => cx.snoop_invalidate_all(addr),
        })
    }
}

/// The replayed machine (see module docs).
#[derive(Debug)]
pub struct Machine {
    device: PaxDevice,
    host: Host,
}

impl Machine {
    /// Builds the machine `PaxPool::create(config)` would build.
    ///
    /// # Errors
    ///
    /// Propagates pool-layout, configuration and media errors.
    pub fn create(config: &PaxConfig) -> libpax::Result<Arc<Self>> {
        let pool = PmPool::create(config.pool)?;
        let regions = even_split(pool.layout().data_lines, config.tenants);
        let device = PaxDevice::open_multi(pool, config.device, regions)?;
        let host = if config.cores <= 1 {
            Host::Single(Mutex::new(CoherentCache::new(config.cache)))
        } else {
            Host::Multi(SharedComplex::new(config.cores, config.cache))
        };
        Ok(Arc::new(Machine { device, host }))
    }

    /// The device, for its counters.
    pub fn device(&self) -> &PaxDevice {
        &self.device
    }

    /// Tenant `t`'s vPM window, accessed through `core`'s cache.
    pub fn space(self: &Arc<Self>, t: TenantId, core: usize) -> ReplaySpace {
        let region = self.device.tenants().region(t);
        ReplaySpace {
            machine: Arc::clone(self),
            base: region.vpm_base * LINE_SIZE as u64,
            len: region.vpm_lines * LINE_SIZE as u64,
            core,
        }
    }

    /// Ends tenant `t`'s epoch through a timed snoop path.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn persist(&self, t: TenantId) -> libpax::Result<u64> {
        let start = Instant::now();
        let out = self.device.persist_tenant(t, &mut TimedSnoop(&self.host));
        let ns = ns_since(start);
        stats(|s| s.persist_ns += ns);
        Ok(out?)
    }

    fn read(&self, core: usize, line: LineAddr) -> pax_pm::Result<CacheLine> {
        let mut home = TimedHome(&self.device);
        match &self.host {
            Host::Single(c) => {
                let mut c = c.lock().expect("host cache lock poisoned");
                let t = Instant::now();
                let out = c.read(line, &mut home);
                note_cache(t);
                out
            }
            Host::Multi(cx) => {
                let t = Instant::now();
                let out = cx.read_on(core, line, &mut home);
                note_cache(t);
                out
            }
        }
    }

    fn write(&self, core: usize, line: LineAddr, data: CacheLine) -> pax_pm::Result<()> {
        let mut home = TimedHome(&self.device);
        match &self.host {
            Host::Single(c) => {
                let mut c = c.lock().expect("host cache lock poisoned");
                let t = Instant::now();
                let out = c.write(line, data, &mut home);
                note_cache(t);
                out
            }
            Host::Multi(cx) => {
                let t = Instant::now();
                let out = cx.write_on(core, line, data, &mut home);
                note_cache(t);
                out
            }
        }
    }
}

fn note_cache(t: Instant) {
    let ns = ns_since(t);
    stats(|s| s.cache_ns += ns);
}

/// One tenant window of the replayed machine (see module docs).
#[derive(Debug, Clone)]
pub struct ReplaySpace {
    machine: Arc<Machine>,
    base: u64,
    len: u64,
    core: usize,
}

impl ReplaySpace {
    fn check(&self, addr: u64, len: usize) -> libpax::Result<()> {
        if addr.checked_add(len as u64).is_none_or(|end| end > self.len) {
            return Err(PaxError::Pm(PmError::OutOfBounds {
                addr: LineAddr::from_byte_addr(addr),
                capacity_lines: self.len / LINE_SIZE as u64,
            }));
        }
        stats(|s| s.accesses += 1);
        Ok(())
    }
}

/// `[addr, addr+len)` as `(line, offset, len)` pieces, as `VPm` splits it.
fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (LineAddr, usize, usize)> {
    let mut cur = addr;
    let end = addr + len as u64;
    std::iter::from_fn(move || {
        if cur >= end {
            return None;
        }
        let line = LineAddr::from_byte_addr(cur);
        let off = (cur - line.byte_addr()) as usize;
        let n = ((LINE_SIZE - off) as u64).min(end - cur) as usize;
        cur += n as u64;
        Some((line, off, n))
    })
}

impl MemSpace for ReplaySpace {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> libpax::Result<()> {
        self.check(addr, buf.len())?;
        let mut done = 0;
        for (line, off, n) in pieces(self.base + addr, buf.len()) {
            let data = self.machine.read(self.core, line)?;
            buf[done..done + n].copy_from_slice(data.read_at(off, n));
            done += n;
        }
        Ok(())
    }

    fn write_bytes(&self, addr: u64, data: &[u8]) -> libpax::Result<()> {
        self.check(addr, data.len())?;
        let mut done = 0;
        for (line, off, n) in pieces(self.base + addr, data.len()) {
            let m = &self.machine;
            if off == 0 && n == LINE_SIZE {
                m.write(self.core, line, CacheLine::from_bytes(&data[done..done + n]))?;
            } else {
                let mut l = m.read(self.core, line)?;
                l.write_at(off, &data[done..done + n]);
                m.write(self.core, line, l)?;
            }
            done += n;
        }
        Ok(())
    }

    fn capacity_bytes(&self) -> u64 {
        self.len
    }
}
