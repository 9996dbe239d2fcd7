// Seeded mutation fuzzing of the SOAP envelope decoders against a DOM
// oracle. Each round generates a double-array envelope (request, reply,
// batch request or batch reply), applies up to three mutations —
// truncation, byte flip, inserted whitespace, entity or comment, an item
// character rewritten as a character reference, an item's text wrapped in
// CDATA or padded — and decodes the result twice: with the streaming
// decoder under test and with an independent reading built from
// xml::parse + soap::xml_to_value. The ok/error verdicts and every decoded
// value (bit for bit) must agree; error messages may differ.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "soap/envelope.hpp"
#include "util/rng.hpp"
#include "xml/parser.hpp"

namespace h2::soap {
namespace {

constexpr std::uint64_t kSeed = 20261017;  // fixed: failures must reproduce
constexpr int kRounds = 2000;
constexpr std::string_view kService = "urn:h2:bulk";

/// A decoded envelope in canonical text form; nullopt is a rejection.
using Verdict = std::optional<std::string>;

enum class Decoder { kRequest, kReply, kBatchRequest, kBatchReply };

// ---- canonical forms --------------------------------------------------------------

void append_bits(std::string& out, double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  out += std::to_string(u);
  out += ',';
}

std::string canonical(const Value& v) {
  std::string out = std::string(to_string(v.kind())) + " " + v.name() + "=";
  switch (v.kind()) {
    case ValueKind::kVoid:
      break;
    case ValueKind::kBool:
      out += *v.as_bool() ? "true" : "false";
      break;
    case ValueKind::kInt:
      out += std::to_string(*v.as_int());
      break;
    case ValueKind::kDouble:
      append_bits(out, *v.as_double());
      break;
    case ValueKind::kString:
      out += v.string_view();
      break;
    case ValueKind::kDoubleArray:
      for (double d : v.doubles_view()) append_bits(out, d);
      break;
    case ValueKind::kBytes:
      for (std::uint8_t b : v.bytes_view()) out += std::to_string(b) + ",";
      break;
  }
  return out + ";";
}

std::string canonical(const Fault& f) {
  return "fault " + f.code + "|" + f.message + "|" + f.detail + ";";
}

std::string canonical(const RpcReply& r) {
  return r.is_fault() ? canonical(r.fault()) : canonical(r.value());
}

std::string canonical_params(const std::vector<Value>& params) {
  std::string out;
  for (const Value& p : params) out += canonical(p);
  return out;
}

// ---- the decoders under test ------------------------------------------------------

Verdict pulled(Decoder d, std::string_view doc) {
  switch (d) {
    case Decoder::kRequest: {
      auto call = parse_request(doc);
      if (!call.ok()) return std::nullopt;
      return "op=" + call->operation + " ns=" + call->service_ns + " " +
             canonical_params(call->params);
    }
    case Decoder::kReply: {
      auto reply = parse_reply(doc);
      if (!reply.ok()) return std::nullopt;
      return canonical(*reply);
    }
    case Decoder::kBatchRequest: {
      auto batch = parse_batch_request(doc);
      if (!batch.ok()) return std::nullopt;
      std::string out = "ns=" + batch->service_ns + " ";
      for (const auto& call : batch->calls) {
        out += "op=" + call.operation + "(" + canonical_params(call.params) + ")";
      }
      return out;
    }
    case Decoder::kBatchReply: {
      auto replies = parse_batch_reply(doc);
      if (!replies.ok()) return std::nullopt;
      std::string out;
      for (const RpcReply& r : *replies) out += canonical(r);
      return out;
    }
  }
  return std::nullopt;
}

// ---- the DOM oracle -----------------------------------------------------------------

/// The Body of a SOAP 1.1 envelope, or nullptr if `root` is not one.
const xml::Node* dom_body(const xml::Node& root) {
  if (root.local_name() != "Envelope") return nullptr;
  auto ns = root.namespace_uri();
  if (!ns || *ns != kEnvelopeNs) return nullptr;
  return root.first_child("Body");
}

std::optional<std::string> dom_params(const xml::Node& call) {
  std::string out;
  for (const xml::Node* param : call.element_children()) {
    auto v = xml_to_value(*param);
    if (!v.ok()) return std::nullopt;
    out += canonical(*v);
  }
  return out;
}

/// One reply Body child: a Fault, or a response whose first child element
/// is the return value (none means void).
std::optional<std::string> dom_reply_element(const xml::Node& el) {
  if (el.local_name() == "Fault") {
    Fault f;
    if (const xml::Node* code = el.first_child("faultcode")) {
      f.code = code->inner_text();
      if (auto colon = f.code.find(':'); colon != std::string::npos) {
        f.code = f.code.substr(colon + 1);
      }
    }
    if (const xml::Node* s = el.first_child("faultstring")) f.message = s->inner_text();
    if (const xml::Node* detail = el.first_child("detail")) f.detail = detail->inner_text();
    return canonical(f);
  }
  auto values = el.element_children();
  if (values.empty()) return canonical(Value::of_void("return"));
  auto v = xml_to_value(*values.front());
  if (!v.ok()) return std::nullopt;
  return canonical(*v);
}

Verdict dom(Decoder d, std::string_view doc) {
  auto root = xml::parse_element(doc);
  if (!root.ok()) return std::nullopt;
  const xml::Node* body = dom_body(**root);
  if (body == nullptr) return std::nullopt;
  auto children = body->element_children();
  switch (d) {
    case Decoder::kRequest: {
      if (children.size() != 1) return std::nullopt;
      auto params = dom_params(*children[0]);
      if (!params) return std::nullopt;
      return "op=" + std::string(children[0]->local_name()) +
             " ns=" + std::string(children[0]->namespace_uri().value_or("")) + " " + *params;
    }
    case Decoder::kReply: {
      if (children.size() != 1) return std::nullopt;
      return dom_reply_element(*children[0]);
    }
    case Decoder::kBatchRequest: {
      std::string ns;
      std::string calls;
      for (const xml::Node* call : children) {
        if (auto uri = call->namespace_uri(); uri && ns.empty()) ns = *uri;
        auto params = dom_params(*call);
        if (!params) return std::nullopt;
        calls += "op=" + std::string(call->local_name()) + "(" + *params + ")";
      }
      return "ns=" + ns + " " + calls;
    }
    case Decoder::kBatchReply: {
      std::string out;
      for (const xml::Node* el : children) {
        auto one = dom_reply_element(*el);
        if (!one) return std::nullopt;
        out += *one;
      }
      return out;
    }
  }
  return std::nullopt;
}

// ---- generation -------------------------------------------------------------------

double interesting_double(Rng& rng) {
  switch (rng.next_below(8)) {
    case 0:
      return -0.0;
    case 1:
      return rng.next_bool(0.5) ? std::numeric_limits<double>::infinity()
                                : -std::numeric_limits<double>::infinity();
    case 2:
      return std::numeric_limits<double>::quiet_NaN();
    case 3:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.next_below(1000) + 1);
    case 4:
      return rng.next_bool(0.5) ? 1e21 : 1e-7;
    case 5:
      return static_cast<double>(rng.next_range(-1000, 1000));
    default:
      return (rng.next_double() - 0.5) * std::pow(10.0, rng.next_range(-30, 30));
  }
}

Value random_array(Rng& rng, std::string name) {
  std::vector<double> values(rng.next_below(24));
  for (double& v : values) v = interesting_double(rng);
  return Value::of_doubles(std::move(values), std::move(name));
}

std::string generate(Decoder d, Rng& rng) {
  switch (d) {
    case Decoder::kRequest: {
      std::vector<Value> params{random_array(rng, "values")};
      if (rng.next_bool(0.3)) params.push_back(random_array(rng, "more"));
      if (rng.next_bool(0.2)) params.push_back(Value::of_int(rng.next_range(-9, 9), "k"));
      return build_request("scale", kService, params);
    }
    case Decoder::kReply:
      if (rng.next_bool(0.1)) return build_fault({"Server", "no such array", "n=3"});
      return build_response("scale", kService, random_array(rng, "return"));
    case Decoder::kBatchRequest: {
      std::vector<std::vector<Value>> params(rng.next_below(4) + 1);
      std::vector<BatchCall> calls;
      for (auto& p : params) {
        p.push_back(random_array(rng, "values"));
        calls.push_back({"scale", p});
      }
      std::string out;
      build_batch_request_into(out, kService, calls);
      return out;
    }
    case Decoder::kBatchReply: {
      std::string out;
      EnvelopeWriter w(out);
      w.envelope_open();
      w.body_open();
      for (std::uint64_t i = 0, n = rng.next_below(4) + 1; i < n; ++i) {
        if (rng.next_bool(0.15)) {
          w.fault({"Client", "bad length", ""});
          continue;
        }
        w.call_open("scale", kService, /*response=*/true);
        w.param(random_array(rng, "return"), "return");
        w.call_close("scale", /*response=*/true);
      }
      w.body_close();
      w.envelope_close();
      return out;
    }
  }
  return {};
}

// ---- mutation ----------------------------------------------------------------------

std::size_t random_pos(const std::string& doc, Rng& rng) {
  return static_cast<std::size_t>(rng.next_below(doc.size() + 1));
}

/// Bounds of a random `<item>` element's text, or nullopt if there is none.
std::optional<std::pair<std::size_t, std::size_t>> random_item_text(const std::string& doc,
                                                                    Rng& rng) {
  std::vector<std::size_t> starts;
  for (std::size_t at = doc.find("<item>"); at != std::string::npos;
       at = doc.find("<item>", at + 1)) {
    starts.push_back(at + 6);
  }
  if (starts.empty()) return std::nullopt;
  std::size_t begin = starts[rng.next_below(starts.size())];
  std::size_t end = doc.find('<', begin);
  if (end == std::string::npos) end = doc.size();
  return std::make_pair(begin, end);
}

void mutate(std::string& doc, Rng& rng) {
  static const char* const kWhitespace[] = {" ", "\t", "\n", "\r\n", "  "};
  static const char* const kEntities[] = {"&amp;", "&lt;",  "&#32;",   "&#x31;", "&#46;",
                                          "&#53;", "&#9;",  "&bogus;", "&#xZZ;", "&"};
  static const char* const kComments[] = {"<!--x-->", "<!---->", "<!-- <item>1</item> -->",
                                          "<?pi x?>"};
  switch (rng.next_below(8)) {
    case 0:  // truncate
      doc.resize(static_cast<std::size_t>(rng.next_below(doc.size() + 1)));
      break;
    case 1:  // flip one byte to anything
      if (!doc.empty()) {
        doc[rng.next_below(doc.size())] = static_cast<char>(rng.next_below(256));
      }
      break;
    case 2:
      doc.insert(random_pos(doc, rng), kWhitespace[rng.next_below(std::size(kWhitespace))]);
      break;
    case 3:
      doc.insert(random_pos(doc, rng), kEntities[rng.next_below(std::size(kEntities))]);
      break;
    case 4:
      doc.insert(random_pos(doc, rng), kComments[rng.next_below(std::size(kComments))]);
      break;
    case 5: {  // one item character as a decimal or hex character reference
      auto item = random_item_text(doc, rng);
      if (!item || item->first == item->second) break;
      std::size_t at = item->first + rng.next_below(item->second - item->first);
      auto c = static_cast<unsigned char>(doc[at]);
      char ref[16];
      std::snprintf(ref, sizeof ref, rng.next_bool(0.5) ? "&#%u;" : "&#x%X;", c);
      doc.replace(at, 1, ref);
      break;
    }
    case 6: {  // an item's text as CDATA
      auto item = random_item_text(doc, rng);
      if (!item) break;
      doc.insert(item->second, "]]>");
      doc.insert(item->first, "<![CDATA[");
      break;
    }
    default: {  // pad an item's text on one side
      auto item = random_item_text(doc, rng);
      if (!item) break;
      doc.insert(rng.next_bool(0.5) ? item->first : item->second,
                 kWhitespace[rng.next_below(std::size(kWhitespace))]);
      break;
    }
  }
}

// ---- the property -----------------------------------------------------------------

void fuzz(Decoder d, std::uint64_t seed) {
  Rng rng(seed);
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::string doc = generate(d, rng);
    for (std::uint64_t i = 0, n = rng.next_below(4); i < n; ++i) mutate(doc, rng);
    Verdict fast = pulled(d, doc);
    Verdict oracle = dom(d, doc);
    ASSERT_EQ(fast.has_value(), oracle.has_value())
        << "verdict mismatch in round " << round << " (stream=" << fast.has_value()
        << " dom=" << oracle.has_value() << ") on:\n"
        << doc;
    if (fast) {
      ASSERT_EQ(*fast, *oracle) << "value mismatch in round " << round << " on:\n" << doc;
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Both sides of the verdict must be exercised, or the property is vacuous.
  EXPECT_GT(accepted, kRounds / 10);
  EXPECT_GT(rejected, kRounds / 10);
}

TEST(SoapMutation, RequestAgreesWithDom) { fuzz(Decoder::kRequest, kSeed); }

TEST(SoapMutation, ReplyAgreesWithDom) { fuzz(Decoder::kReply, kSeed + 1); }

TEST(SoapMutation, BatchRequestAgreesWithDom) { fuzz(Decoder::kBatchRequest, kSeed + 2); }

TEST(SoapMutation, BatchReplyAgreesWithDom) { fuzz(Decoder::kBatchReply, kSeed + 3); }

}  // namespace
}  // namespace h2::soap
