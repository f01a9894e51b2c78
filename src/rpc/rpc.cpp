#include "rpc/rpc.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "util/codec.hpp"

namespace coop::rpc {

namespace {

enum WireType : std::uint8_t { kRequest = 1, kReply = 2 };

/// Builds a per-instance registry key: "<base>.<node>:<port>.<leaf>".
std::string metric_key(const char* base, const net::Address& addr,
                       const char* leaf) {
  return std::string(base) + "." + std::to_string(addr.node) + ":" +
         std::to_string(addr.port) + "." + leaf;
}

/// First cached reply at or above @p req_id (replies are sorted by id).
auto reply_at_or_above(std::vector<std::pair<std::uint64_t, util::Buf>>& v,
                       std::uint64_t req_id) {
  return std::lower_bound(
      v.begin(), v.end(), req_id,
      [](const auto& e, std::uint64_t id) { return e.first < id; });
}

}  // namespace

// ------------------------------------------------------------------- server

RpcServer::RpcServer(net::Network& net, net::Address self)
    : net_(net), self_(self) {
  auto& m = net_.obs().metrics;
  handled_ = &m.counter(metric_key("rpc.server", self_, "handled"));
  replays_ = &m.counter(metric_key("rpc.server", self_, "replays"));
  stale_ = &m.counter(metric_key("rpc.server", self_, "stale"));
  shed_[0] = &m.counter(metric_key("rpc.server", self_, "shed_core"));
  shed_[1] = &m.counter(metric_key("rpc.server", self_, "shed_control"));
  shed_[2] = &m.counter(metric_key("rpc.server", self_, "shed_background"));
  expired_ = &m.counter(metric_key("rpc.server", self_, "expired"));
  expired_global_ = &m.counter("rpc.expired_drops");
  ts_shed_ = net_.obs().series.series("rpc.shed");
  prof_handle_ = net_.obs().profiler.site("rpc.handle", obs::Category::kRpc);
  net_.attach(self_, *this);
}

RpcServer::~RpcServer() {
  for (const sim::EventId id : pending_replies_) net_.simulator().cancel(id);
  net_.detach(self_);
}

void RpcServer::set_admission(const AdmissionConfig& config) {
  admission_ = config;
}

std::size_t RpcServer::replay_entries() const noexcept {
  std::size_t n = 0;
  for (const auto& [addr, c] : clients_) n += c.replies.size();
  return n;
}

RpcServer::ClientReplies* RpcServer::admit_call(const net::Message& msg,
                                                std::uint64_t req_id) {
  ClientReplies& c = clients_[msg.src];
  if (msg.epoch < c.epoch) return nullptr;  // a predecessor's request
  if (msg.epoch > c.epoch) {
    // The client was re-created: its req ids start over, so nothing the
    // predecessor was answered may be replayed to it.
    c.epoch = msg.epoch;
    c.floor = 0;
    c.replies.clear();
  }
  if (msg.floor_gap != 0 && msg.floor_gap <= req_id) {
    const std::uint64_t floor = req_id + 1 - msg.floor_gap;
    if (floor > c.floor) {
      c.floor = floor;
      c.replies.erase(c.replies.begin(), reply_at_or_above(c.replies, floor));
    }
  }
  return req_id < c.floor ? nullptr : &c;
}

void RpcServer::reply(const CallKey& call, Status status,
                      const std::string& body,
                      const obs::CausalContext& handle_ctx,
                      sim::TimePoint handle_start) {
  const std::uint64_t req_id = call.req_id;
  // The service-time span: request arrival at the server to reply leaving
  // it (under admission: service start to reply, so run-queue wait is not
  // misattributed as service).  The critical-path analyzer buckets this as
  // "service".
  net_.obs().tracer.span(handle_start, net_.simulator().now(),
                         obs::Category::kRpc, "handle", handle_ctx,
                         {{"req", static_cast<double>(req_id)}});
  util::Writer w;
  w.put(kReply).put(req_id).put(status).put_string(body);
  // The replay cache and the outgoing datagram share one wire buffer.  A
  // reply the client can no longer ask for (its call fell below the floor
  // or its epoch was superseded while the handler ran) is sent uncached.
  util::Buf wire = w.take_buf();
  auto c = clients_.find(call.client);
  if (c != clients_.end() && c->second.epoch == call.epoch &&
      req_id >= c->second.floor) {
    auto& replies = c->second.replies;
    auto pos = reply_at_or_above(replies, req_id);
    if (pos != replies.end() && pos->first == req_id) {
      pos->second = wire;
    } else {
      replies.emplace(pos, req_id, wire);
    }
  }
  net_.send({.src = self_, .dst = call.client, .payload = std::move(wire),
             .epoch = call.epoch, .ctx = handle_ctx});
}

void RpcServer::push_back_shed(const net::Message& msg, std::uint64_t req_id) {
  // Pushback is the cheap path: no handler, no processing delay, and no
  // replay-cache entry — a retry after the queue drains may be admitted.
  util::Writer w;
  w.put(kReply).put(req_id).put(Status::kRejected).put_string("");
  net_.send({.src = self_, .dst = msg.src, .payload = w.take_buf(),
             .epoch = msg.epoch, .ctx = msg.ctx});
}

void RpcServer::on_message(const net::Message& msg) {
  util::Reader r(msg.payload);
  if (r.get<std::uint8_t>() != kRequest) return;
  const auto req_id = r.get<std::uint64_t>();
  const std::string method = r.get_string();
  const std::string body = r.get_string();
  if (r.failed()) return;

  obs::Tracer& tracer = net_.obs().tracer;
  const sim::TimePoint arrived = net_.simulator().now();

  // A call the client has finished (or a predecessor incarnation's) is
  // never re-executed; nobody waits for its answer, so drop it silently.
  ClientReplies* client = admit_call(msg, req_id);
  if (client == nullptr) {
    stale_->inc();
    tracer.event(arrived, obs::Category::kRpc, "stale", msg.ctx,
                 {{"req", static_cast<double>(req_id)}});
    return;
  }
  const CallKey call{msg.src, msg.epoch, req_id};

  // Retried request already executed: replay the cached reply verbatim.
  // The reply rides the retry's context, so the client's completion links
  // back to whichever attempt actually reached the server.
  if (auto it = reply_at_or_above(client->replies, req_id);
      it != client->replies.end() && it->first == req_id) {
    replays_->inc();
    tracer.event(arrived, obs::Category::kRpc, "replay", msg.ctx,
                 {{"req", static_cast<double>(req_id)}});
    net_.send({.src = self_, .dst = msg.src, .payload = it->second,
               .epoch = msg.epoch, .ctx = msg.ctx});
    return;
  }

  const obs::CausalContext handle_ctx =
      msg.ctx.valid() ? msg.ctx.child(tracer.mint_id()) : obs::CausalContext{};

  if (auto async = async_methods_.find(method);
      async != async_methods_.end()) {
    if (!in_progress_.insert(call).second) return;  // retry while running
    handled_->inc();
    async->second(body, [this, call, handle_ctx, arrived](HandlerResult hr) {
      in_progress_.erase(call);
      reply(call, hr.ok ? Status::kOk : Status::kAppError, hr.body,
            handle_ctx, arrived);
    });
    return;
  }

  auto handler = methods_.find(method);
  if (handler == methods_.end()) {
    reply(call, Status::kNoSuchMethod, method, handle_ctx, arrived);
    return;
  }

  if (admission_) {
    // A retry of a request still sitting in the run queue is absorbed, the
    // same contract as in_progress_ for async handlers: the queued
    // execution will answer it.
    if (queued_.count(call) != 0) return;

    const std::size_t depth = queue_depth();
    const auto pi = static_cast<std::size_t>(msg.priority);
    const std::size_t watermark =
        msg.priority == net::Priority::kCore ? admission_->queue_capacity
        : msg.priority == net::Priority::kControl
            ? admission_->control_watermark
            : admission_->background_watermark;
    if (depth >= watermark) {
      shed_[pi]->inc();
      net_.obs().series.count(ts_shed_, arrived);
      tracer.event(arrived, obs::Category::kRpc, "shed", msg.ctx,
                   {{"req", static_cast<double>(req_id)},
                    {"priority", static_cast<double>(pi)},
                    {"depth", static_cast<double>(depth)}});
      push_back_shed(msg, req_id);
      return;
    }
    enqueue(msg, call, method, body);
    return;
  }

  // Legacy (no admission control): execute now — state mutation is
  // immediate and exactly-once — and send the reply after the modelled
  // processing delay.  Every request is serviced concurrently, which is
  // exactly the unbounded-queue behaviour the admission path replaces.
  handled_->inc();
  HandlerResult hr;
  {
    obs::ProfScope prof(net_.obs().profiler, prof_handle_);
    hr = handler->second(body);
  }
  const Status status = hr.ok ? Status::kOk : Status::kAppError;
  if (processing_ > 0) {
    auto id_holder = std::make_shared<sim::EventId>(sim::kInvalidEvent);
    *id_holder = net_.simulator().schedule_after(
        processing_, [this, id_holder, call, status, body = hr.body,
                      handle_ctx, arrived] {
          pending_replies_.erase(*id_holder);
          reply(call, status, body, handle_ctx, arrived);
        });
    pending_replies_.insert(*id_holder);
  } else {
    reply(call, status, hr.body, handle_ctx, arrived);
  }
}

void RpcServer::enqueue(const net::Message& msg, const CallKey& call,
                        std::string method, std::string body) {
  QueuedRequest q;
  q.key = call;
  q.method = std::move(method);
  q.body = std::move(body);
  q.arrived = net_.simulator().now();
  q.deadline = msg.deadline;
  q.priority = msg.priority;
  q.ctx = msg.ctx.valid() ? msg.ctx.child(net_.obs().tracer.mint_id())
                          : obs::CausalContext{};
  queued_.insert(call);
  runq_[static_cast<std::size_t>(msg.priority)].push_back(std::move(q));
  service_next();
}

void RpcServer::service_next() {
  if (serving_) return;
  obs::Tracer& tracer = net_.obs().tracer;
  while (true) {
    std::deque<QueuedRequest>* queue = nullptr;
    if (admission_ && !admission_->priority_dequeue) {
      // Global FIFO: the earliest arrival across all classes, regardless
      // of priority (ties broken by class index, deterministically).
      for (auto& candidate : runq_) {
        if (candidate.empty()) continue;
        if (queue == nullptr ||
            candidate.front().arrived < queue->front().arrived) {
          queue = &candidate;
        }
      }
    } else {
      for (auto& candidate : runq_) {
        if (!candidate.empty()) {
          queue = &candidate;
          break;
        }
      }
    }
    if (queue == nullptr) return;
    QueuedRequest q = std::move(queue->front());
    queue->pop_front();
    // NB: q stays in queued_ until its reply is replay-cached (or the
    // request expires) — a retransmit landing mid-service must still be
    // absorbed, or the handler would run twice.
    const sim::TimePoint now = net_.simulator().now();

    // Deadline propagation pays off here: expired work is dropped at
    // dequeue, before any service time is burned on it.  The client's own
    // deadline already fired (or is firing this step), so no reply is
    // owed; silence keeps the drop free.
    if (admission_ && admission_->drop_expired && q.deadline > 0 &&
        now >= q.deadline) {
      queued_.erase(q.key);
      expired_->inc();
      expired_global_->inc();
      tracer.event(now, obs::Category::kRpc, "expired", q.ctx,
                   {{"req", static_cast<double>(q.key.req_id)},
                    {"late", static_cast<double>(now - q.deadline)}});
      continue;
    }

    // Run-queue wait span, bucketed as "queue" by the critical-path
    // analyzer (the server-side analogue of a link serializer queue).
    if (now > q.arrived) {
      tracer.span(q.arrived, now, obs::Category::kRpc, "runq", q.ctx,
                  {{"req", static_cast<double>(q.key.req_id)}});
    }

    handled_->inc();
    HandlerResult hr;
    {
      obs::ProfScope prof(net_.obs().profiler, prof_handle_);
      hr = methods_[q.method](q.body);
    }
    const Status status = hr.ok ? Status::kOk : Status::kAppError;
    if (processing_ > 0) {
      serving_ = true;
      auto id_holder = std::make_shared<sim::EventId>(sim::kInvalidEvent);
      *id_holder = net_.simulator().schedule_after(
          processing_, [this, id_holder, call = q.key, status,
                        body = hr.body, ctx = q.ctx, now] {
            pending_replies_.erase(*id_holder);
            serving_ = false;
            queued_.erase(call);
            reply(call, status, body, ctx, now);
            service_next();
          });
      pending_replies_.insert(*id_holder);
      return;
    }
    queued_.erase(q.key);
    reply(q.key, status, hr.body, q.ctx, now);
  }
}

// ------------------------------------------------------------------- client

RpcClient::RpcClient(net::Network& net, net::Address self,
                     ClientOverloadConfig overload)
    : net_(net), self_(self), overload_(overload) {
  auto& m = net_.obs().metrics;
  rtts_ = &m.summary(metric_key("rpc.client", self_, "rtt_us"));
  timeouts_ = &m.counter(metric_key("rpc.client", self_, "timeouts"));
  rejected_ = &m.counter(metric_key("rpc.client", self_, "rejected"));
  retries_denied_ =
      &m.counter(metric_key("rpc.client", self_, "retries_denied"));
  obs::Timeseries& ts = net_.obs().series;
  ts_latency_ = ts.series("rpc.latency_us");
  ts_ok_ = ts.series("rpc.ok");
  ts_error_ = ts.series("rpc.error");
  epoch_ = net_.attach(self_, *this);
}

RpcClient::~RpcClient() {
  for (auto& [id, o] : outstanding_) {
    if (o.timer != sim::kInvalidEvent) net_.simulator().cancel(o.timer);
  }
  net_.detach(self_);
}

RpcClient::PeerGuards& RpcClient::guards(const net::Address& server) {
  auto [it, inserted] = guards_.try_emplace(server);
  if (inserted) {
    it->second.budget = net::RetryBudget(overload_.budget);
    it->second.breaker = net::CircuitBreaker(overload_.breaker);
  }
  return it->second;
}

net::CircuitBreaker::State RpcClient::breaker_state(
    const net::Address& server) const {
  auto it = guards_.find(server);
  return it == guards_.end() ? net::CircuitBreaker::State::kClosed
                             : it->second.breaker.state();
}

double RpcClient::budget_tokens(const net::Address& server) const {
  auto it = guards_.find(server);
  return it == guards_.end() ? overload_.budget.initial
                             : it->second.budget.tokens();
}

void RpcClient::call(const net::Address& server, const std::string& method,
                     const std::string& request, Callback done,
                     CallOptions opts) {
  const std::uint64_t req_id = next_req_id_++;
  util::Writer w;
  w.put(static_cast<std::uint8_t>(1) /* kRequest */)
      .put(req_id)
      .put_string(method)
      .put_string(request);
  obs::Tracer& tracer = net_.obs().tracer;
  const sim::TimePoint now = net_.simulator().now();
  Outstanding o;
  o.server = server;
  o.wire = w.take_buf();
  o.done = std::move(done);
  o.opts = opts;
  o.issued_at = now;
  o.current_timeout = opts.timeout;
  // A call either continues the caller's trace or is itself an entry
  // point; every attempt, hop, and the server's handling descend from
  // this span.
  o.ctx = opts.parent.valid() ? opts.parent.child(tracer.mint_id())
                              : tracer.begin_trace();
  const obs::CausalContext call_ctx = o.ctx;
  outstanding_[req_id] = std::move(o);
  tracer.event(now, obs::Category::kRpc, "call", call_ctx,
               {{"req", static_cast<double>(req_id)},
                {"server", static_cast<double>(server.node)}});

  // A call issued at or past its own deadline is dead on arrival.  This
  // must precede the breaker check: a half-open breaker's probe slot is
  // only released by record_success/record_failure, and a DOA completion
  // records neither.
  if (opts.deadline > 0 && now >= opts.deadline) {
    net_.simulator().schedule_after(0, [this, req_id, call_ctx] {
      complete(req_id, {.status = Status::kTimeout, .reply = {}, .rtt = 0},
               call_ctx);
    });
    return;
  }

  // Breaker fast-fail: an open circuit answers locally with kRejected —
  // no wire traffic, no timeout burned.  Completion is deferred one step
  // so call() never re-enters the caller synchronously.
  if (!guards(server).breaker.allow(now)) {
    rejected_->inc();
    const obs::CausalContext reject_ctx = call_ctx.child(tracer.mint_id());
    tracer.event(now, obs::Category::kRpc, "rejected", reject_ctx,
                 {{"req", static_cast<double>(req_id)}});
    net_.simulator().schedule_after(0, [this, req_id, reject_ctx] {
      complete(req_id, {.status = Status::kRejected, .reply = {}, .rtt = 0},
               reject_ctx);
    });
    return;
  }

  transmit(req_id, call_ctx);
}

void RpcClient::transmit(std::uint64_t req_id,
                         const obs::CausalContext& attempt_ctx) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) return;
  // Every call below the smallest outstanding id has finished: the server
  // may forget those replies.  The floor rides as a 32-bit distance.
  const std::uint64_t gap = req_id + 1 - outstanding_.begin()->first;
  net_.send({.src = self_, .dst = it->second.server,
             .payload = it->second.wire, .epoch = epoch_,
             .deadline = it->second.opts.deadline,
             .priority = it->second.opts.priority,
             .floor_gap = gap <= std::numeric_limits<std::uint32_t>::max()
                              ? static_cast<std::uint32_t>(gap)
                              : 0,
             .ctx = attempt_ctx});
  arm_timeout(req_id);
}

void RpcClient::arm_timeout(std::uint64_t req_id) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) return;
  Outstanding& o = it->second;
  o.armed_timeout = o.current_timeout;
  if (o.opts.backoff_jitter > 0) {
    const double scale = net_.simulator().rng().uniform(
        1.0 - o.opts.backoff_jitter, 1.0 + o.opts.backoff_jitter);
    o.armed_timeout = std::max<sim::Duration>(
        1, static_cast<sim::Duration>(static_cast<double>(o.current_timeout) *
                                      scale));
  }
  // The deadline clips every armed wait: a retry timer never extends the
  // call past it (the deadline-vs-retry truncation contract).
  if (o.opts.deadline > 0) {
    const sim::Duration remaining = o.opts.deadline - net_.simulator().now();
    o.armed_timeout = std::max<sim::Duration>(
        0, std::min(o.armed_timeout, remaining));
  }
  o.timer = net_.simulator().schedule_after(
      o.armed_timeout, [this, req_id] { on_timeout_expiry(req_id); });
}

void RpcClient::on_timeout_expiry(std::uint64_t req_id) {
  auto oit = outstanding_.find(req_id);
  if (oit == outstanding_.end()) return;
  Outstanding& out = oit->second;
  out.timer = sim::kInvalidEvent;
  obs::Tracer& tracer = net_.obs().tracer;
  const sim::TimePoint now = net_.simulator().now();

  const bool deadline_reached =
      out.opts.deadline > 0 && now >= out.opts.deadline;
  if (deadline_reached && !out.deadline_requeued) {
    // The timer was armed before any reply arriving this step was
    // scheduled, so the kernel's FIFO tie-break would run it first.  A
    // reply landing in the same sim step as the deadline must win:
    // re-queue the expiry behind everything already scheduled for this
    // instant (a reply completing the call meanwhile cancels the timer).
    out.deadline_requeued = true;
    out.timer = net_.simulator().schedule_after(
        0, [this, req_id] { on_timeout_expiry(req_id); });
    return;
  }

  const bool exhausted = out.attempt >= out.opts.retries;
  bool budget_denied = false;
  if (!exhausted && !deadline_reached) {
    budget_denied = !guards(out.server).budget.try_spend();
    if (budget_denied) {
      retries_denied_->inc();
      tracer.event(now, obs::Category::kRpc, "retry_denied",
                   out.ctx.valid() ? out.ctx.child(tracer.mint_id())
                                   : obs::CausalContext{},
                   {{"req", static_cast<double>(req_id)}});
    }
  }

  if (exhausted || deadline_reached || budget_denied) {
    timeouts_->inc();
    guards(out.server).breaker.record_failure(now);
    const obs::CausalContext timeout_ctx =
        out.ctx.valid() ? out.ctx.child(tracer.mint_id())
                        : obs::CausalContext{};
    tracer.event(now, obs::Category::kRpc, "timeout", timeout_ctx,
                 {{"req", static_cast<double>(req_id)}});
    complete(req_id,
             {.status = Status::kTimeout,
              .reply = {},
              .rtt = now - out.issued_at},
             timeout_ctx);
    return;
  }

  // Retries share the call's trace; each attempt is a child span of the
  // call.  `waited` is the (jittered) timeout that actually lapsed
  // before this attempt could fire — the critical-path analyzer's
  // "retry" bucket.
  const sim::Duration waited = out.armed_timeout;
  ++out.attempt;
  out.current_timeout = static_cast<sim::Duration>(
      static_cast<double>(out.current_timeout) * out.opts.backoff);
  const obs::CausalContext attempt_ctx =
      out.ctx.valid() ? out.ctx.child(tracer.mint_id())
                      : obs::CausalContext{};
  tracer.event(now, obs::Category::kRpc, "retry", attempt_ctx,
               {{"req", static_cast<double>(req_id)},
                {"attempt", static_cast<double>(out.attempt)},
                {"waited", static_cast<double>(waited)}});
  transmit(req_id, attempt_ctx);
}

void RpcClient::complete(std::uint64_t req_id, const RpcResult& result,
                         const obs::CausalContext& cause) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) return;
  Callback done = std::move(it->second.done);
  if (it->second.timer != sim::kInvalidEvent)
    net_.simulator().cancel(it->second.timer);
  const sim::TimePoint issued_at = it->second.issued_at;
  outstanding_.erase(it);
  const sim::TimePoint now = net_.simulator().now();
  if (result.ok()) {
    rtts_->add(static_cast<double>(result.rtt));
    net_.obs().series.observe(ts_latency_, now,
                              static_cast<double>(result.rtt));
    net_.obs().series.count(ts_ok_, now);
  } else {
    net_.obs().series.count(ts_error_, now);
  }
  obs::Tracer& tracer = net_.obs().tracer;
  // The end-to-end span: child of whatever finished the call (the reply
  // delivery, or the final timeout) so the arrowhead lands on completion.
  const obs::CausalContext rpc_ctx =
      cause.valid() ? cause.child(tracer.mint_id()) : obs::CausalContext{};
  tracer.span(issued_at, net_.simulator().now(), obs::Category::kRpc, "rpc",
              rpc_ctx,
              {{"req", static_cast<double>(req_id)},
               {"status",
                static_cast<double>(
                    static_cast<std::uint8_t>(result.status))}});
  if (done) done(result);
}

void RpcClient::on_message(const net::Message& msg) {
  util::Reader r(msg.payload);
  if (r.get<std::uint8_t>() != kReply) return;
  const auto req_id = r.get<std::uint64_t>();
  const auto status = r.get<Status>();
  std::string body = r.get_string();
  if (r.failed() || msg.epoch != epoch_) return;  // a predecessor's reply
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) return;  // late duplicate reply

  // Feed the destination's guards: any substantive reply proves the
  // server alive (breaker closes), a successful one earns retry budget,
  // and a pushback counts as a failure the breaker accumulates toward
  // fast-failing — the explicit signal that converts server overload into
  // client-side back-off without waiting out a timeout.
  PeerGuards& g = guards(it->second.server);
  if (status == Status::kRejected) {
    rejected_->inc();
    g.breaker.record_failure(net_.simulator().now());
  } else {
    if (status == Status::kOk) g.budget.on_success();
    g.breaker.record_success();
  }

  complete(req_id,
           {.status = status,
            .reply = std::move(body),
            .rtt = net_.simulator().now() - it->second.issued_at},
           msg.ctx);
}

}  // namespace coop::rpc
