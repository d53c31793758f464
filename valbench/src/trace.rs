//! The traced ladder: `stacks::full_upstream`'s composition rebuilt from
//! the public layer types, with a benchmark-owned timing [`Service`]
//! between each pair of adjacent layers. Spans stay in memory and are
//! written out at the end of the run; a layer's self time is its span
//! minus the spans of the layer below it.

use irs_core::wire::{Request, Response};
use irs_net::resilient::RetryPolicy;
use irs_net::service::{
    BoxService, BreakerLayer, CacheLayer, CallCtx, Failover, RetryLayer, Service, ServiceExt,
    StaleServeLayer, TcpTransport,
};
use irs_net::NetError;
use irs_proxy::SharedProxy;
use std::cell::Cell;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The ladder's layers, outermost first (`full_upstream`'s order).
pub const LAYERS: [&str; 6] = [
    "cache",
    "stale",
    "breaker",
    "retry",
    "failover",
    "transport",
];

/// One recorded span.
#[derive(Clone, Copy)]
pub struct Span {
    /// Index into [`LAYERS`].
    pub layer: u8,
    /// Index into [`LAYERS`] of the enclosing span (`u8::MAX` at the root).
    pub parent: u8,
    /// The request the span belongs to.
    pub request: u64,
    /// Start, ns since the sink's origin.
    pub start: u64,
    /// End, ns since the sink's origin.
    pub end: u64,
}

/// Where the shims record.
pub struct SpanSink {
    origin: Instant,
    next_request: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// `(request id, innermost open layer)` of the call on this thread.
    static OPEN: Cell<(u64, u8)> = const { Cell::new((0, u8::MAX)) };
}

impl SpanSink {
    /// An empty sink.
    pub fn new() -> Arc<SpanSink> {
        Arc::new(SpanSink {
            origin: Instant::now(),
            next_request: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 20)),
        })
    }

    /// Drain the recorded spans.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// The timing shim: records one span per call into `inner`.
pub struct Timed<S> {
    layer: u8,
    inner: S,
    sink: Arc<SpanSink>,
}

impl<S: Service> Service for Timed<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let (open_request, parent) = OPEN.with(Cell::get);
        let request = if parent == u8::MAX {
            self.sink.next_request.fetch_add(1, Ordering::Relaxed)
        } else {
            open_request
        };
        OPEN.with(|o| o.set((request, self.layer)));
        let start = self.sink.origin.elapsed().as_nanos() as u64;
        let result = self.inner.call(req, ctx);
        let end = self.sink.origin.elapsed().as_nanos() as u64;
        OPEN.with(|o| o.set((open_request, parent)));
        self.sink
            .spans
            .lock()
            .expect("span sink poisoned")
            .push(Span {
                layer: self.layer,
                parent,
                request,
                start,
                end,
            });
        result
    }
}

fn timed<S: Service>(layer: usize, inner: S, sink: &Arc<SpanSink>) -> Timed<S> {
    Timed {
        layer: layer as u8,
        inner,
        sink: sink.clone(),
    }
}

/// `Cache(StaleServe(Breaker(Retry(Failover(Tcp)))))` with a shim around
/// every layer. Returns the stack and its transport (for its reconnect
/// counter).
pub fn traced_full_upstream(
    proxy: Arc<SharedProxy>,
    upstream: SocketAddr,
    retry: RetryPolicy,
    sink: &Arc<SpanSink>,
) -> (BoxService, Arc<TcpTransport>) {
    let transport = Arc::new(TcpTransport::new(upstream, retry.io_timeout));
    let failover = Failover::new(vec![timed(5, transport.clone(), sink)]);
    let retry_svc = timed(4, failover, sink).layered(RetryLayer::new(retry));
    let breaker = timed(3, retry_svc, sink).layered(BreakerLayer::new(proxy.clone()));
    let stale = timed(2, breaker, sink).layered(StaleServeLayer::new(proxy.clone()));
    let cache = timed(1, stale, sink).layered(CacheLayer::new(proxy));
    (timed(0, cache, sink).boxed(), transport)
}

/// Per-layer totals over a set of spans.
pub struct LayerTimes {
    /// Spans recorded per layer.
    pub calls: [u64; 6],
    /// Self time per layer, ns (span minus the spans of the layer below).
    pub self_ns: [u64; 6],
    /// Summed duration of the outermost (`cache`) spans, ns.
    pub root_ns: u64,
}

/// Sum span durations per layer and subtract each layer's children.
pub fn layer_times(spans: &[Span]) -> LayerTimes {
    let mut calls = [0u64; 6];
    let mut total = [0u64; 6];
    let mut child = [0u64; 6];
    for s in spans {
        let d = s.end.saturating_sub(s.start);
        calls[s.layer as usize] += 1;
        total[s.layer as usize] += d;
        if (s.parent as usize) < LAYERS.len() {
            child[s.parent as usize] += d;
        }
    }
    let mut self_ns = [0u64; 6];
    for i in 0..6 {
        self_ns[i] = total[i].saturating_sub(child[i]);
    }
    LayerTimes {
        calls,
        self_ns,
        root_ns: total[0],
    }
}

/// Write spans as tab-separated `request layer parent start_ns end_ns`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "request\tlayer\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = LAYERS.get(s.parent as usize).copied().unwrap_or("-");
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.request, LAYERS[s.layer as usize], parent, s.start, s.end
        )?;
    }
    out.flush()
}
