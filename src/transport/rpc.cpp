#include "transport/rpc.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "resilience/dedup.hpp"
#include "soap/envelope.hpp"
#include "soap/mime.hpp"
#include "transport/http.hpp"
#include "transport/marshal.hpp"

namespace h2::net {

namespace {

/// Maps a dispatch error to a SOAP fault code: caller mistakes are Client,
/// everything else is Server.
const char* fault_code_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kParseError:
    case ErrorCode::kNotFound:
      return "Client";
    default:
      return "Server";
  }
}

/// A fault as the caller sees it: Client faults are the caller's mistake
/// (kInvalidArgument), everything else is kUnavailable.
Error fault_error(const soap::Fault& fault, std::string_view prefix = "soap fault: ") {
  return Error(fault.code == "Client" ? ErrorCode::kInvalidArgument
                                      : ErrorCode::kUnavailable,
               std::string(prefix) + fault.describe());
}

/// A plain (non-mustUnderstand) SOAP header entry.
soap::HeaderEntry plain_header(std::string_view name, std::string_view ns,
                               std::string value) {
  soap::HeaderEntry entry;
  entry.name = std::string(name);
  entry.ns = std::string(ns);
  entry.value = std::move(value);
  return entry;
}

// ---- batching helpers ---------------------------------------------------------

/// Gives every pending sub-call the same transport-level verdict.
void fill_results(std::vector<Result<Value>>& results, std::size_t count,
                  const Error& error) {
  results.assign(count, Result<Value>(error));
}

/// Appends one length-prefixed sub-reply directly into the batch frame:
/// u32 placeholder, marshal in place, backpatch — no staging buffer.
/// Returns a view of the sub-reply frame, valid until `out` grows.
std::span<const std::uint8_t> append_sub_reply(enc::XdrWriter& out,
                                               const Result<Value>& outcome) {
  const std::size_t length_at = out.size();
  out.put_u32(0);
  const std::size_t start = out.size();
  marshal_reply_into(out, outcome);
  out.buffer().patch_u32_be(length_at, static_cast<std::uint32_t>(out.size() - start));
  return out.buffer().bytes().subspan(start);
}

/// Server half of XDR batching, shared by serve_xdr and the raw HTTP
/// mount: splits the "H2RB" frame, runs sub-calls in order, and streams
/// an "H2RZ" frame of sub-replies. Sub-calls carrying an idempotency key
/// go through `dedup` exactly like singleton calls — the cached unit is
/// the singleton "H2RP" frame, so replays splice straight into the batch
/// and fresh sub-replies are cached from their place in the batch frame.
ByteBuffer serve_batch_frame(std::span<const std::uint8_t> raw,
                             Dispatcher& dispatcher, resil::DedupCache* dedup,
                             ByteBuffer scratch) {
  auto frames = split_batch_call(raw);
  if (!frames.ok()) {
    // Unreadable outer frame: answer with a singleton error reply. The
    // client demux recognizes the "H2RP" magic and applies the error to
    // every pending sub-call.
    return marshal_reply(frames.error().context("xdr server"));
  }
  scratch.clear();
  enc::XdrWriter out(std::move(scratch));
  marshal_batch_reply_begin(out, static_cast<std::uint32_t>(frames->size()));
  for (std::span<const std::uint8_t> frame : *frames) {
    auto call = unmarshal_call(frame);
    if (!call.ok()) {
      append_sub_reply(out, call.error().context("xdr server"));
      continue;
    }
    const bool keyed = dedup != nullptr && !call->call_id.empty();
    if (keyed && dedup->replay(resil::Framing::kXdrFrame, call->call_id,
                               [&](std::span<const std::uint8_t> cached) {
                                 out.put_opaque(cached);
                               })) {
      continue;
    }
    auto reply = append_sub_reply(out, dispatcher.dispatch(call->operation, call->params));
    if (keyed) dedup->store(resil::Framing::kXdrFrame, call->call_id, reply);
  }
  return out.take();
}

/// Client half: turns the server's answer into per-call results. Accepts
/// either an "H2RZ" frame (count must match) or a bare "H2RP" error reply
/// covering the whole batch; on failure `results` is the caller's to fill.
Status demux_batch_reply(std::span<const std::uint8_t> bytes, std::size_t expected,
                         std::vector<Result<Value>>& results) {
  if (!is_batch_reply(bytes)) {
    auto outcome = unmarshal_reply(bytes);
    if (!outcome.ok()) return outcome.error();
    return Error(ErrorCode::kParseError, "xdr frame: singleton reply to a batch call");
  }
  auto frames = split_batch_reply(bytes);
  if (!frames.ok()) return frames.error();
  if (frames->size() != expected) {
    return Error(ErrorCode::kParseError,
                 "xdr frame: batch reply count " + std::to_string(frames->size()) +
                     " != request count " + std::to_string(expected));
  }
  results.clear();
  results.reserve(expected);
  for (std::span<const std::uint8_t> frame : *frames) {
    results.push_back(unmarshal_reply(frame));
  }
  return Status::success();
}

class LocalChannel final : public Channel {
 public:
  LocalChannel(Dispatcher& dispatcher, bool instance_bound)
      : dispatcher_(dispatcher), instance_bound_(instance_bound) {}

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override {
    // One entity: the target's dispatcher. No marshaling, no copies —
    // exactly the unmediated access the paper's Java/JavaObject bindings
    // promise for co-deployed components.
    stats_ = CallStats{.entities_traversed = 1, .request_bytes = 0, .response_bytes = 0};
    return dispatcher_.dispatch(operation, params);
  }

  const char* binding_name() const override {
    return instance_bound_ ? "localobject" : "local";
  }
  CallStats last_stats() const override { return stats_; }

 private:
  Dispatcher& dispatcher_;
  bool instance_bound_;
  CallStats stats_;
};

class XdrChannel final : public Channel {
 public:
  XdrChannel(Transport& net, HostId from, Endpoint to)
      : net_(net), from_(from), to_(std::move(to)) {}

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override {
    return round_trip(
        "xdr call ", operation,
        [&](ByteBuffer scratch) {
          enc::XdrWriter writer(std::move(scratch));
          marshal_call_into(writer, operation, params, call_id_);
          return writer.take();
        },
        // unmarshal_reply borrows the response bytes (the decoded Value
        // owns its own storage), so the reply buffer can be recycled.
        [](std::span<const std::uint8_t> reply) { return unmarshal_reply(reply); });
  }

  Status invoke_batch(std::span<const BatchItem> calls,
                      std::vector<Result<Value>>& results) override {
    if (calls.empty()) {
      results.clear();
      return Status::success();
    }
    Status status = round_trip(
        "xdr batch", {},
        [&](ByteBuffer scratch) { return marshal_batch_call(calls, std::move(scratch)); },
        [&](std::span<const std::uint8_t> reply) {
          return demux_batch_reply(reply, calls.size(), results);
        });
    if (!status.ok()) fill_results(results, calls.size(), status.error());
    return status;
  }

  const char* binding_name() const override { return "xdr"; }
  CallStats last_stats() const override { return stats_; }
  void set_call_id(std::string call_id) override { call_id_ = std::move(call_id); }
  const Endpoint* remote() const override { return &to_; }

 private:
  /// The one wire round trip behind invoke() and invoke_batch(): resolve,
  /// `marshal` the frame into a pooled buffer, call, and `decode` the
  /// reply bytes before they go back to the pool. A transport error is
  /// prefixed with `what` + `operation`.
  template <typename Marshal, typename Decode>
  auto round_trip(std::string_view what, std::string_view operation, Marshal&& marshal,
                  Decode&& decode) -> decltype(decode(std::span<const std::uint8_t>{})) {
    auto host = net_.resolve(to_.host);
    if (!host.ok()) return host.error();
    // Marshal into a pooled buffer: after the first few calls the frame
    // capacity is recycled instead of reallocated per call.
    ByteBuffer frame = marshal(net_.buffer_pool().acquire());
    stats_ = CallStats{.entities_traversed = 4,  // stub, socket, skeleton, dispatcher
                       .request_bytes = frame.size(),
                       .response_bytes = 0};
    auto response = net_.call(from_, *host, to_.port, frame.bytes());
    net_.buffer_pool().release(std::move(frame));
    if (!response.ok()) return response.error().context(std::string(what).append(operation));
    stats_.response_bytes = response->size();
    auto reply = decode(response->bytes());
    net_.buffer_pool().release(std::move(*response));
    return reply;
  }

  Transport& net_;
  HostId from_;
  Endpoint to_;
  std::string call_id_;
  CallStats stats_;
};

/// Base of the HTTP-framed bindings (soap, http, mime): each builds its own
/// request body and accepts its own statuses, and all three share the one
/// POST round trip in post() and the one status-code rule in status_error().
class HttpFramedChannel : public Channel {
 public:
  CallStats last_stats() const override { return stats_; }
  const Endpoint* remote() const override { return &to_; }

 protected:
  /// `response_what` prefixes the error of an unparseable HTTP response.
  HttpFramedChannel(Transport& net, HostId from, Endpoint to, const char* response_what)
      : net_(net), from_(from), to_(std::move(to)), response_what_(response_what) {}

  /// Resolves the endpoint, POSTs `request` to its path, and parses the
  /// response. `entities` is the binding's hop count for CallStats; a
  /// transport error is prefixed with `what` + `operation`.
  Result<http::Response> post(http::Request& request, int entities, std::string_view what,
                              std::string_view operation) {
    auto host = net_.resolve(to_.host);
    if (!host.ok()) return host.error();
    request.target = "/" + to_.path;
    ByteBuffer wire = request.serialize(to_.host);
    stats_ = CallStats{.entities_traversed = entities,
                       .request_bytes = wire.size(),
                       .response_bytes = 0};
    auto raw = net_.call(from_, *host, to_.port, wire.bytes());
    if (!raw.ok()) return raw.error().context(std::string(what).append(operation));
    stats_.response_bytes = raw->size();
    auto response = http::parse_response(raw->bytes());
    if (!response.ok()) return response.error().context(response_what_);
    return response;
  }

  /// The one status-code rule, for a status the binding does not accept:
  /// 400 rejects the request itself, which fails the same way on every
  /// retry and every replica (kInvalidArgument); any other status is
  /// kUnavailable, so retries and failover (a 404 replica) move on.
  static Error status_error(std::string_view prefix, const http::Response& response) {
    return Error(response.status == 400 ? ErrorCode::kInvalidArgument
                                        : ErrorCode::kUnavailable,
                 std::string(prefix) + std::to_string(response.status) + " " +
                     response.reason);
  }

  Transport& net_;
  HostId from_;
  Endpoint to_;
  const char* response_what_;
  CallStats stats_;
};

class SoapChannel final : public HttpFramedChannel {
 public:
  SoapChannel(Transport& net, HostId from, Endpoint to, std::string service_ns)
      : HttpFramedChannel(net, from, std::move(to), "soap http response"),
        service_ns_(std::move(service_ns)) {}

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override {
    return round_trip(
        operation, "soap call ", operation,
        [&] {
          if (!call_id_.empty()) {
            // Idempotency key, same non-mustUnderstand shape as Trace:
            // servers without dedup simply ignore it.
            headers_.push_back(
                plain_header(resil::kCallIdHeaderName, resil::kCallIdHeaderNs, call_id_));
          }
          soap::build_request_into(envelope_, operation, service_ns_, params, headers_);
        },
        [](std::string_view body) -> Result<Value> {
          auto reply = soap::parse_reply(body);
          if (!reply.ok()) return reply.error();
          if (reply->is_fault()) return fault_error(reply->fault());
          return std::move(*reply).value();
        });
  }

  Status invoke_batch(std::span<const BatchItem> calls,
                      std::vector<Result<Value>>& results) override {
    if (calls.empty()) {
      results.clear();
      return Status::success();
    }
    Status status = round_trip(
        "batch", "soap batch", {},
        [&] {
          // The batch marker: count + comma-joined per-sub-call idempotency
          // keys (position i names sub-call i; empty slots mean "no key").
          // Both are plain non-mustUnderstand headers.
          headers_.push_back(plain_header(kBatchCountHeaderName, kBatchHeaderNs,
                                          std::to_string(calls.size())));
          if (std::any_of(calls.begin(), calls.end(),
                          [](const BatchItem& item) { return !item.call_id.empty(); })) {
            std::string ids;
            for (std::size_t i = 0; i < calls.size(); ++i) {
              if (i > 0) ids += ',';
              ids += calls[i].call_id;
            }
            headers_.push_back(plain_header(kBatchIdsHeaderName, kBatchHeaderNs, std::move(ids)));
          }
          batch_scratch_.clear();
          batch_scratch_.reserve(calls.size());
          for (const BatchItem& item : calls) {
            batch_scratch_.push_back({item.operation, item.params});
          }
          soap::build_batch_request_into(envelope_, service_ns_, batch_scratch_, headers_);
        },
        [&](std::string_view body) -> Status {
          auto replies = soap::parse_batch_reply(body);
          if (!replies.ok()) return replies.error();
          if (replies->size() != calls.size()) {
            // A single fault element answering a multi-call batch is a
            // whole-envelope rejection (bad request, MustUnderstand, ...).
            if (replies->size() == 1 && (*replies)[0].is_fault()) {
              return fault_error((*replies)[0].fault());
            }
            return Error(ErrorCode::kParseError,
                         "soap: batch reply count " + std::to_string(replies->size()) +
                             " != request count " + std::to_string(calls.size()));
          }
          results.clear();
          results.reserve(calls.size());
          for (soap::RpcReply& reply : *replies) {
            results.push_back(reply.is_fault() ? Result<Value>(fault_error(reply.fault()))
                                               : Result<Value>(std::move(reply).value()));
          }
          return Status::success();
        });
    if (!status.ok()) fill_results(results, calls.size(), status.error());
    return status;
  }

  const char* binding_name() const override { return "soap"; }
  void set_call_id(std::string call_id) override { call_id_ = std::move(call_id); }

 private:
  /// The one SOAP exchange behind invoke() and invoke_batch(): the shared
  /// headers, `build_envelope` (which adds the call's own headers to
  /// headers_ and writes envelope_), the POST, the status-code rule, and
  /// `decode` of the reply envelope. SOAPAction is "<ns>#<action>".
  template <typename Build, typename Decode>
  auto round_trip(std::string_view action, std::string_view what,
                  std::string_view operation, Build&& build_envelope, Decode&& decode)
      -> decltype(decode(std::string_view{})) {
    http::Request request;
    request.headers.set("Content-Type", "text/xml; charset=utf-8");
    request.headers.set("SOAPAction", "\"" + service_ns_ + "#" + std::string(action) + "\"");
    // Build into the channel's scratch buffers so steady-state calls reuse
    // their capacity. When a span is open on this thread, its context
    // rides along as a non-mustUnderstand <h2:Trace> header so the serving
    // host can continue the trace.
    headers_.clear();
    obs::TraceContext trace = obs::Tracer::current();
    if (trace.valid()) {
      headers_.push_back(plain_header(obs::kTraceHeaderName, obs::kTraceHeaderNs,
                                      obs::encode_trace_header(trace)));
    }
    build_envelope();
    request.body = std::move(envelope_);
    // stub, soap encoder, http client, socket, http server, soap decoder
    // = 6 entities before the dispatcher runs.
    auto response = post(request, 6, what, operation);
    envelope_ = std::move(request.body);
    if (!response.ok()) return response.error();
    if (response->status != 200 && response->status != 500) {
      return status_error("soap: http status ", *response);
    }
    return decode(response->body);
  }

  std::string service_ns_;
  std::string call_id_;
  std::string envelope_;  ///< reused request-envelope buffer
  std::vector<soap::HeaderEntry> headers_;  ///< reused header scratch
  std::vector<soap::BatchCall> batch_scratch_;  ///< reused batch-call views
};

class HttpChannel final : public HttpFramedChannel {
 public:
  HttpChannel(Transport& net, HostId from, Endpoint to)
      : HttpFramedChannel(net, from, std::move(to), "http response") {}

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override {
    http::Request request;
    request.headers.set("Content-Type", "application/octet-stream");
    request.body = marshal_call(operation, params, call_id_).to_string();
    // stub, http client, socket, http server, dispatcher — SOAP's two
    // XML codec entities are gone.
    auto response = post(request, 5, "http call ", operation);
    if (!response.ok()) return response.error();
    if (response->status != 200) return status_error("http: status ", *response);
    // View the body in place — the reply frame was copied here before.
    return unmarshal_reply(as_byte_span(response->body));
  }

  const char* binding_name() const override { return "http"; }
  void set_call_id(std::string call_id) override { call_id_ = std::move(call_id); }

 private:
  std::string call_id_;
};

class MimeChannel final : public HttpFramedChannel {
 public:
  MimeChannel(Transport& net, HostId from, Endpoint to, std::string service_ns)
      : HttpFramedChannel(net, from, std::move(to), "mime http response"),
        service_ns_(std::move(service_ns)) {}

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override {
    auto multipart = soap::build_mime_request(operation, service_ns_, params);
    http::Request request;
    request.headers.set("Content-Type", multipart.content_type);
    request.body = multipart.body.to_string();
    // Same entity chain as SOAP (the envelope is still XML) — the win is
    // wire bytes and codec CPU, not hop count.
    auto response = post(request, 6, "mime call ", operation);
    if (!response.ok()) return response.error();
    auto reply = soap::parse_mime_reply(response->headers.get_or("content-type", ""),
                                        as_byte_span(response->body));
    if (!reply.ok()) return reply.error();
    if (reply->is_fault()) return fault_error(reply->fault(), "mime fault: ");
    return std::move(*reply).value();
  }

  const char* binding_name() const override { return "mime"; }
  // set_call_id stays the no-op default: the multipart request format has
  // no header slot for per-call metadata, so mime channels get retries
  // and breakers but not dedup (callers needing at-most-once pick another
  // binding).

 private:
  std::string service_ns_;
};

}  // namespace

std::unique_ptr<Channel> make_http_channel(Transport& net, HostId from,
                                           const Endpoint& to) {
  return std::make_unique<HttpChannel>(net, from, to);
}

std::unique_ptr<Channel> make_mime_channel(Transport& net, HostId from,
                                           const Endpoint& to, std::string service_ns) {
  return std::make_unique<MimeChannel>(net, from, to, std::move(service_ns));
}

std::unique_ptr<Channel> make_local_channel(Dispatcher& dispatcher, bool instance_bound) {
  return std::make_unique<LocalChannel>(dispatcher, instance_bound);
}

std::unique_ptr<Channel> make_xdr_channel(Transport& net, HostId from,
                                          const Endpoint& to) {
  return std::make_unique<XdrChannel>(net, from, to);
}

std::unique_ptr<Channel> make_soap_channel(Transport& net, HostId from,
                                           const Endpoint& to, std::string service_ns) {
  return std::make_unique<SoapChannel>(net, from, to, std::move(service_ns));
}

Result<ServerHandle> serve_xdr(Transport& net, HostId host, std::uint16_t port,
                               std::shared_ptr<Dispatcher> dispatcher) {
  return serve_xdr(net, host, port, std::move(dispatcher), nullptr);
}

Result<ServerHandle> serve_xdr(Transport& net, HostId host, std::uint16_t port,
                               std::shared_ptr<Dispatcher> dispatcher,
                               std::shared_ptr<resil::DedupCache> dedup) {
  auto status = net.listen(
      host, port,
      [&net, dispatcher, dedup](std::span<const std::uint8_t> raw) -> Result<ByteBuffer> {
        if (is_batch_call(raw)) {
          return serve_batch_frame(raw, *dispatcher, dedup.get(),
                                   net.buffer_pool().acquire());
        }
        auto call = unmarshal_call(raw);
        if (!call.ok()) {
          return marshal_reply(call.error().context("xdr server"));
        }
        if (dedup && !call->call_id.empty()) {
          if (auto cached = dedup->lookup(resil::Framing::kXdrFrame, call->call_id)) {
            return std::move(*cached);
          }
        }
        ByteBuffer reply =
            marshal_reply(dispatcher->dispatch(call->operation, call->params));
        // Cache faults too: the dispatcher ran, and a duplicate must see
        // the same outcome rather than a second execution.
        if (dedup && !call->call_id.empty()) {
          dedup->store(resil::Framing::kXdrFrame, call->call_id, reply.bytes());
        }
        return reply;
      });
  if (!status.ok()) return status.error();
  return ServerHandle(&net, host, port);
}

SoapHttpServer::SoapHttpServer(Transport& net, HostId host, std::uint16_t port)
    : net_(net), host_(host), port_(port) {}

SoapHttpServer::~SoapHttpServer() { stop(); }

Status SoapHttpServer::start() {
  if (running_) return Status::success();
  auto status = net_.listen(host_, port_, [this](std::span<const std::uint8_t> raw) {
    return handle(raw);
  });
  if (!status.ok()) return status;
  running_ = true;
  return Status::success();
}

void SoapHttpServer::stop() {
  if (!running_) return;
  (void)net_.close(host_, port_);
  running_ = false;
}

Status SoapHttpServer::add_mount(std::string path, std::shared_ptr<Dispatcher> dispatcher,
                                 MountKind kind) {
  if (!path.empty() && path.front() == '/') path.erase(0, 1);
  std::lock_guard lock(mounts_mu_);
  if (mounts_.count(path)) {
    return err::already_exists(
        std::string(kind == MountKind::kSoap ? "soap server" : "http server") +
        ": path '/" + path + "' already mounted");
  }
  mounts_[std::move(path)] = Mount{std::move(dispatcher), kind};
  return Status::success();
}

Status SoapHttpServer::mount(std::string path, std::shared_ptr<Dispatcher> dispatcher) {
  return add_mount(std::move(path), std::move(dispatcher), MountKind::kSoap);
}

Status SoapHttpServer::mount_raw(std::string path, std::shared_ptr<Dispatcher> dispatcher) {
  return add_mount(std::move(path), std::move(dispatcher), MountKind::kRaw);
}

Status SoapHttpServer::mount_mime(std::string path, std::shared_ptr<Dispatcher> dispatcher) {
  return add_mount(std::move(path), std::move(dispatcher), MountKind::kMime);
}

Status SoapHttpServer::unmount(std::string_view path) {
  if (!path.empty() && path.front() == '/') path.remove_prefix(1);
  std::lock_guard lock(mounts_mu_);
  auto it = mounts_.find(path);
  if (it == mounts_.end()) {
    return err::not_found("soap server: path '/" + std::string(path) + "' not mounted");
  }
  mounts_.erase(it);
  return Status::success();
}

std::size_t SoapHttpServer::mounted_count() const {
  std::lock_guard lock(mounts_mu_);
  return mounts_.size();
}

void SoapHttpServer::set_dedup(std::shared_ptr<resil::DedupCache> dedup) {
  std::lock_guard lock(mounts_mu_);
  dedup_ = std::move(dedup);
}

Result<ByteBuffer> SoapHttpServer::handle(std::span<const std::uint8_t> raw) {
  auto make_response = [](int status) {
    http::Response response;
    response.status = status;
    response.reason = std::string(http::reason_for(status));
    response.headers.set("Content-Type", "text/xml; charset=utf-8");
    return response;
  };
  auto fault = [&](int status, const char* code, const std::string& message) {
    http::Response response = make_response(status);
    soap::build_fault_into(response.body, {code, message, ""});
    return response.serialize();
  };

  auto request = http::parse_request(raw);
  if (!request.ok()) {
    return fault(400, "Client", request.error().message());
  }
  if (request->method != "POST") {
    return fault(405, "Client", "method " + request->method + " not allowed");
  }
  std::string_view path(request->target);
  if (!path.empty() && path.front() == '/') path.remove_prefix(1);
  // Copy the mount (and the dedup handle) out under the lock, then
  // dispatch without it: a concurrent — or reentrant — unmount may erase
  // the map entry mid-call, but our shared_ptr keeps the dispatcher alive.
  MountKind kind;
  std::shared_ptr<Dispatcher> dispatcher;
  std::shared_ptr<resil::DedupCache> dedup;
  {
    std::lock_guard lock(mounts_mu_);
    auto it = mounts_.find(path);
    if (it == mounts_.end()) {
      return fault(404, "Client", "no service at " + request->target);
    }
    kind = it->second.kind;
    dispatcher = it->second.dispatcher;
    dedup = dedup_;
  }

  if (kind == MountKind::kMime) {
    // SOAP-with-Attachments: parse the multipart request, dispatch, and
    // answer with a multipart response (faults as single-part envelopes).
    std::string content_type = request->headers.get_or("content-type", "");
    auto call = soap::parse_mime_request(content_type, as_byte_span(request->body));
    soap::MultipartMessage reply;
    int status_code = 200;
    if (!call.ok()) {
      reply = soap::build_mime_fault({"Client", call.error().message(), ""});
      status_code = 400;
    } else {
      auto result = dispatcher->dispatch(call->operation, call->params);
      if (!result.ok()) {
        reply = soap::build_mime_fault(
            {fault_code_for(result.error().code()), result.error().message(), ""});
        status_code = 500;
      } else {
        reply = soap::build_mime_response(call->operation, call->service_ns, *result);
      }
    }
    http::Response response = make_response(status_code);
    response.headers.set("Content-Type", reply.content_type);
    response.body = reply.body.to_string();
    return response.serialize();
  }

  if (kind == MountKind::kRaw) {
    // The http binding: XDR call frame in, XDR reply frame out; dispatch
    // errors travel in-band inside the reply frame. The body is viewed in
    // place — no per-request copy.
    auto octet_response = [&](const ByteBuffer& reply) {
      http::Response response = make_response(200);
      response.headers.set("Content-Type", "application/octet-stream");
      response.body = reply.to_string();
      return response.serialize();
    };
    std::span<const std::uint8_t> body = as_byte_span(request->body);
    if (is_batch_call(body)) {
      ByteBuffer reply = serve_batch_frame(body, *dispatcher, dedup.get(),
                                           net_.buffer_pool().acquire());
      ByteBuffer wire = octet_response(reply);
      net_.buffer_pool().release(std::move(reply));
      return wire;
    }
    auto call = unmarshal_call(body);
    if (call.ok() && dedup && !call->call_id.empty()) {
      if (auto cached = dedup->lookup(resil::Framing::kHttpReply, call->call_id)) {
        return std::move(*cached);
      }
    }
    ByteBuffer wire = octet_response(
        call.ok() ? marshal_reply(dispatcher->dispatch(call->operation, call->params))
                  : marshal_reply(Result<Value>(call.error())));
    if (call.ok() && dedup && !call->call_id.empty()) {
      dedup->store(resil::Framing::kHttpReply, call->call_id, wire.bytes());
    }
    return wire;
  }

  // One batch-tolerant parse serves both shapes: a body with exactly one
  // operation element and no BatchCount header is the classic singleton
  // path (byte-identical responses); a BatchCount header selects batch
  // dispatch over however many operation elements the body carries.
  auto call = soap::parse_batch_request(request->body);
  if (!call.ok()) {
    return fault(400, "Client", call.error().message());
  }
  for (const soap::HeaderEntry& header : call->headers) {
    if (header.must_understand && !understood_.count(header.name)) {
      return fault(500, "MustUnderstand",
                   "header '" + header.name + "' not understood");
    }
  }
  // Recover the trace context, idempotency key(s) and batch marker.
  obs::TraceContext remote_parent;
  std::string call_id;
  std::string batch_count;
  std::string batch_ids;
  for (const soap::HeaderEntry& header : call->headers) {
    if (header.name == obs::kTraceHeaderName && header.ns == obs::kTraceHeaderNs) {
      if (auto parsed = obs::parse_trace_header(header.value)) remote_parent = *parsed;
    } else if (header.name == resil::kCallIdHeaderName &&
               header.ns == resil::kCallIdHeaderNs) {
      call_id = header.value;
    } else if (header.ns == kBatchHeaderNs) {
      if (header.name == kBatchCountHeaderName) batch_count = header.value;
      if (header.name == kBatchIdsHeaderName) batch_ids = header.value;
    }
  }

  // Each operation runs under a server span; its name string is built
  // only when it will be recorded (tracing is usually off).
  auto dispatch_traced = [&](const soap::BatchRpcCall::Call& op) {
    obs::Span span;
    if (net_.tracer().enabled()) {
      span = net_.tracer().start_span("soap.serve." + op.operation, remote_parent);
      if (span.active()) span.annotate("host=" + net_.host_name(host_));
    }
    auto result = dispatcher->dispatch(op.operation, op.params);
    span.set_ok(result.ok());
    span.finish();
    return result;
  };

  if (batch_count.empty()) {
    // Singleton path, unchanged semantics.
    if (call->calls.size() != 1) {
      return fault(400, "Client",
                   "soap: request Body must contain exactly one operation element");
    }
    const soap::BatchRpcCall::Call& single = call->calls.front();
    if (dedup && !call_id.empty()) {
      if (auto cached = dedup->lookup(resil::Framing::kSoapReply, call_id)) {
        return std::move(*cached);
      }
    }
    auto result = dispatch_traced(single);
    ByteBuffer wire;
    if (!result.ok()) {
      wire = fault(500, fault_code_for(result.error().code()), result.error().message());
    } else {
      // Build the response envelope directly into the HTTP body: no
      // intermediate envelope string to allocate and copy.
      http::Response response = make_response(200);
      soap::build_response_into(response.body, single.operation, call->service_ns,
                                *result);
      wire = response.serialize();
    }
    // Cache success and dispatch faults alike — the handler executed either
    // way, and a duplicate must observe the same outcome.
    if (dedup && !call_id.empty()) {
      dedup->store(resil::Framing::kSoapReply, call_id, wire.bytes());
    }
    return wire;
  }

  // Batch path: sub-calls execute in order, each result (or fault) is one
  // Body element of a single 200 response. Dedup works per sub-call: the
  // cached unit is the response/fault XML FRAGMENT, written straight into
  // the body and spliced back into whatever batch a replayed id arrives in.
  // The count stops at the wire's per-frame call limit, like an XDR batch
  // frame's: no larger batch is served, and a longer digit run would wrap
  // (2^64 + 1 would read as 1).
  std::size_t declared = 0;
  for (char c : batch_count) {
    if (c < '0' || c > '9') return fault(400, "Client", "soap: bad BatchCount header");
    declared = declared * 10 + static_cast<std::size_t>(c - '0');
    if (declared > kMaxBatchCalls) return fault(400, "Client", "soap: bad BatchCount header");
  }
  if (declared != call->calls.size()) {
    return fault(400, "Client",
                 "soap: BatchCount " + batch_count + " != " +
                     std::to_string(call->calls.size()) + " operation elements");
  }
  std::vector<std::string_view> ids;
  if (!batch_ids.empty()) {
    std::string_view rest = batch_ids;
    while (true) {
      std::size_t comma = rest.find(',');
      ids.push_back(rest.substr(0, comma));
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
    if (ids.size() != call->calls.size()) {
      return fault(400, "Client", "soap: BatchCallIds count mismatch");
    }
  }

  http::Response response = make_response(200);
  soap::EnvelopeWriter writer(response.body);
  writer.envelope_open();
  writer.body_open();
  for (std::size_t i = 0; i < call->calls.size(); ++i) {
    const soap::BatchRpcCall::Call& sub = call->calls[i];
    const std::string_view id = ids.empty() ? std::string_view{} : ids[i];
    const bool keyed = dedup && !id.empty();
    if (keyed && dedup->replay(resil::Framing::kSoapFragment, id,
                               [&](std::span<const std::uint8_t> cached) {
                                 response.body.append(
                                     reinterpret_cast<const char*>(cached.data()),
                                     cached.size());
                               })) {
      continue;
    }
    auto result = dispatch_traced(sub);
    const std::size_t fragment_at = response.body.size();
    if (!result.ok()) {
      writer.fault({fault_code_for(result.error().code()), result.error().message(), ""});
    } else {
      writer.call_open(sub.operation, call->service_ns, /*response=*/true);
      writer.param(*result, "return");
      writer.call_close(sub.operation, /*response=*/true);
    }
    if (keyed) {
      dedup->store(resil::Framing::kSoapFragment, id,
                   as_byte_span(std::string_view(response.body).substr(fragment_at)));
    }
  }
  writer.body_close();
  writer.envelope_close();
  return response.serialize();
}

}  // namespace h2::net
