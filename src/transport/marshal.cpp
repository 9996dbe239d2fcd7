#include "transport/marshal.hpp"

namespace h2::net {

namespace {
constexpr std::uint32_t kCallMagic = 0x48325251;           // "H2RQ"
constexpr std::uint32_t kResilientCallMagic = 0x48325243;  // "H2RC"
constexpr std::uint32_t kReplyMagic = 0x48325250;          // "H2RP"
constexpr std::uint32_t kBatchCallMagic = 0x48325242;      // "H2RB"
constexpr std::uint32_t kBatchReplyMagic = 0x4832525A;     // "H2RZ"

bool starts_with_magic(std::span<const std::uint8_t> bytes, std::uint32_t magic) {
  if (bytes.size() < 4) return false;
  const std::uint32_t head = (std::uint32_t{bytes[0]} << 24) |
                             (std::uint32_t{bytes[1]} << 16) |
                             (std::uint32_t{bytes[2]} << 8) | std::uint32_t{bytes[3]};
  return head == magic;
}

// Shared splitter: both batch frames are magic | u32 count | opaque*.
Result<std::vector<std::span<const std::uint8_t>>> split_batch_frames(
    std::span<const std::uint8_t> bytes, std::uint32_t expected_magic,
    const char* what) {
  enc::XdrReader reader(bytes);  // borrowing mode: views alias `bytes`
  auto magic = reader.get_u32();
  if (!magic.ok()) return magic.error();
  if (*magic != expected_magic) {
    return err::parse(std::string("xdr frame: bad ") + what + " magic");
  }
  auto count = reader.get_u32();
  if (!count.ok()) return count.error();
  if (*count > kMaxBatchCalls) {
    return err::parse("xdr frame: batch count " + std::to_string(*count) +
                      " exceeds limit " + std::to_string(kMaxBatchCalls));
  }
  std::vector<std::span<const std::uint8_t>> out;
  out.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto view = reader.get_opaque_view();
    if (!view.ok()) {
      return view.error().context("batch sub-frame " + std::to_string(i));
    }
    out.push_back(*view);
  }
  if (!reader.exhausted()) return err::parse("xdr frame: trailing bytes in batch");
  return out;
}
}  // namespace

void marshal_value(enc::XdrWriter& writer, const Value& value) {
  writer.put_string(value.name());
  writer.put_u32(static_cast<std::uint32_t>(value.kind()));
  switch (value.kind()) {
    case ValueKind::kVoid:
      break;
    case ValueKind::kBool:
      writer.put_bool(value.as_bool().value());
      break;
    case ValueKind::kInt:
      writer.put_i64(value.as_int().value());
      break;
    case ValueKind::kDouble:
      writer.put_f64(value.as_double().value());
      break;
    case ValueKind::kString:
      writer.put_string(value.as_string().value());
      break;
    case ValueKind::kDoubleArray:
      writer.put_f64_array(value.doubles_view());
      break;
    case ValueKind::kBytes:
      writer.put_opaque(value.bytes_view());
      break;
  }
}

Result<Value> unmarshal_value(enc::XdrReader& reader) {
  auto name = reader.get_string();
  if (!name.ok()) return name.error().context("value name");
  auto tag = reader.get_u32();
  if (!tag.ok()) return tag.error().context("value kind");
  switch (static_cast<ValueKind>(*tag)) {
    case ValueKind::kVoid:
      return Value::of_void(std::move(*name));
    case ValueKind::kBool: {
      auto v = reader.get_bool();
      if (!v.ok()) return v.error();
      return Value::of_bool(*v, std::move(*name));
    }
    case ValueKind::kInt: {
      auto v = reader.get_i64();
      if (!v.ok()) return v.error();
      return Value::of_int(*v, std::move(*name));
    }
    case ValueKind::kDouble: {
      auto v = reader.get_f64();
      if (!v.ok()) return v.error();
      return Value::of_double(*v, std::move(*name));
    }
    case ValueKind::kString: {
      auto v = reader.get_string();
      if (!v.ok()) return v.error();
      return Value::of_string(std::move(*v), std::move(*name));
    }
    case ValueKind::kDoubleArray: {
      auto v = reader.get_f64_array();
      if (!v.ok()) return v.error();
      return Value::of_doubles(std::move(*v), std::move(*name));
    }
    case ValueKind::kBytes: {
      auto v = reader.get_opaque();
      if (!v.ok()) return v.error();
      return Value::of_bytes(std::move(*v), std::move(*name));
    }
  }
  return err::parse("xdr frame: unknown value kind tag " + std::to_string(*tag));
}

void marshal_call_into(enc::XdrWriter& writer, std::string_view operation,
                       std::span<const Value> params, std::string_view call_id) {
  if (call_id.empty()) {
    writer.put_u32(kCallMagic);
  } else {
    writer.put_u32(kResilientCallMagic);
    writer.put_string(call_id);
  }
  writer.put_string(operation);
  writer.put_u32(static_cast<std::uint32_t>(params.size()));
  for (const Value& p : params) marshal_value(writer, p);
}

ByteBuffer marshal_call(std::string_view operation, std::span<const Value> params,
                        std::string_view call_id) {
  enc::XdrWriter writer;
  marshal_call_into(writer, operation, params, call_id);
  return writer.take();
}

Result<UnmarshaledCall> unmarshal_call(std::span<const std::uint8_t> bytes) {
  enc::XdrReader reader(bytes);
  auto magic = reader.get_u32();
  if (!magic.ok()) return magic.error();
  if (*magic != kCallMagic && *magic != kResilientCallMagic) {
    return err::parse("xdr frame: bad call magic");
  }
  UnmarshaledCall out;
  if (*magic == kResilientCallMagic) {
    auto id = reader.get_string();
    if (!id.ok()) return id.error().context("call id");
    out.call_id = std::move(*id);
  }
  auto op = reader.get_string();
  if (!op.ok()) return op.error().context("call operation");
  out.operation = std::move(*op);
  auto count = reader.get_u32();
  if (!count.ok()) return count.error();
  // Every value takes at least 8 bytes (name length + kind tag): refuse a
  // hostile count before reserving for it.
  if (*count > reader.remaining() / 8) {
    return err::parse("xdr frame: param count " + std::to_string(*count) +
                      " exceeds the frame");
  }
  out.params.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto v = unmarshal_value(reader);
    if (!v.ok()) return v.error().context("call param " + std::to_string(i));
    out.params.push_back(std::move(*v));
  }
  if (!reader.exhausted()) return err::parse("xdr frame: trailing bytes in call");
  return out;
}

void marshal_reply_into(enc::XdrWriter& writer, const Result<Value>& outcome) {
  writer.put_u32(kReplyMagic);
  writer.put_bool(outcome.ok());
  if (outcome.ok()) {
    marshal_value(writer, *outcome);
  } else {
    writer.put_u32(static_cast<std::uint32_t>(outcome.error().code()));
    writer.put_string(outcome.error().message());
  }
}

ByteBuffer marshal_reply(const Result<Value>& outcome) {
  enc::XdrWriter writer;
  marshal_reply_into(writer, outcome);
  return writer.take();
}

Result<Value> unmarshal_reply(std::span<const std::uint8_t> bytes) {
  enc::XdrReader reader(bytes);
  auto magic = reader.get_u32();
  if (!magic.ok()) return magic.error();
  if (*magic != kReplyMagic) return err::parse("xdr frame: bad reply magic");
  auto ok = reader.get_bool();
  if (!ok.ok()) return ok.error();
  if (*ok) {
    auto v = unmarshal_value(reader);
    if (!v.ok()) return v.error().context("reply value");
    if (!reader.exhausted()) return err::parse("xdr frame: trailing bytes in reply");
    return v;
  }
  auto code = reader.get_u32();
  if (!code.ok()) return code.error();
  auto message = reader.get_string();
  if (!message.ok()) return message.error();
  if (*code > static_cast<std::uint32_t>(ErrorCode::kInternal)) {
    return err::parse("xdr frame: unknown error code " + std::to_string(*code));
  }
  return Error(static_cast<ErrorCode>(*code), std::move(*message));
}

bool is_batch_call(std::span<const std::uint8_t> bytes) {
  return starts_with_magic(bytes, kBatchCallMagic);
}

bool is_batch_reply(std::span<const std::uint8_t> bytes) {
  return starts_with_magic(bytes, kBatchReplyMagic);
}

ByteBuffer marshal_batch_call(std::span<const BatchItem> calls, ByteBuffer scratch) {
  scratch.clear();
  enc::XdrWriter writer(std::move(scratch));
  writer.put_u32(kBatchCallMagic);
  writer.put_u32(static_cast<std::uint32_t>(calls.size()));
  for (const BatchItem& item : calls) {
    // Length-prefix each sub-frame by backpatching: marshal straight into
    // the batch buffer, no per-sub-call staging copy. XDR streams are
    // 4-aligned by construction, so the opaque needs no padding.
    const std::size_t length_at = writer.size();
    writer.put_u32(0);
    const std::size_t start = writer.size();
    marshal_call_into(writer, item.operation, item.params, item.call_id);
    writer.buffer().patch_u32_be(length_at,
                                 static_cast<std::uint32_t>(writer.size() - start));
  }
  return writer.take();
}

void marshal_batch_reply_begin(enc::XdrWriter& writer, std::uint32_t count) {
  writer.put_u32(kBatchReplyMagic);
  writer.put_u32(count);
}

Result<std::vector<std::span<const std::uint8_t>>> split_batch_call(
    std::span<const std::uint8_t> bytes) {
  return split_batch_frames(bytes, kBatchCallMagic, "batch call");
}

Result<std::vector<std::span<const std::uint8_t>>> split_batch_reply(
    std::span<const std::uint8_t> bytes) {
  return split_batch_frames(bytes, kBatchReplyMagic, "batch reply");
}

}  // namespace h2::net
