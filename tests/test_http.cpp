#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "helpers.h"
#include "http/client.h"
#include "http/origin.h"
#include "http/pac.h"
#include "http/server.h"
#include "http/socks.h"
#include "http/tls.h"
#include "http/url.h"
#include "util/strings.h"

namespace sc::http {
namespace {

using test::MiniWorld;

// ---- URL ----

TEST(Url, ParsesCommonForms) {
  auto u = Url::parse("https://scholar.google.com/citations?x=1");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->scheme, "https");
  EXPECT_EQ(u->host, "scholar.google.com");
  EXPECT_EQ(u->port, 443);
  EXPECT_EQ(u->path, "/citations?x=1");

  u = Url::parse("http://10.3.0.1:8080/proxy.pac");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->port, 8080);
  EXPECT_EQ(u->path, "/proxy.pac");

  u = Url::parse("http://example.com");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->path, "/");
  EXPECT_EQ(u->port, 80);
}

TEST(Url, RejectsMalformed) {
  EXPECT_FALSE(Url::parse("ftp://x.com/").has_value());
  EXPECT_FALSE(Url::parse("no-scheme.com/x").has_value());
  EXPECT_FALSE(Url::parse("http://:80/").has_value());
  EXPECT_FALSE(Url::parse("http://host:0/").has_value());
  EXPECT_FALSE(Url::parse("http://host:99999/").has_value());
}

TEST(Url, RoundTripsToString) {
  const auto u = Url::parse("https://a.b:8443/p/q");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->str(), "https://a.b:8443/p/q");
  EXPECT_EQ(Url::parse("https://a.b/x")->str(), "https://a.b/x");
}

// ---- message codec ----

TEST(HttpMessage, RequestSerializeParseRoundTrip) {
  Request req;
  req.method = "POST";
  req.target = "/submit";
  req.headers.set("Host", "example.com");
  req.body = toBytes("payload");

  RequestParser parser;
  const auto msgs = parser.feed(req.serialize());
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].method, "POST");
  EXPECT_EQ(msgs[0].target, "/submit");
  EXPECT_EQ(msgs[0].host(), "example.com");
  EXPECT_EQ(msgs[0].body, toBytes("payload"));
}

TEST(HttpMessage, HeaderKeysAreCaseInsensitive) {
  Request req;
  req.headers.set("HOST", "x");
  EXPECT_EQ(req.headers.get("host").value_or(""), "x");
  EXPECT_TRUE(req.headers.has("Host"));
}

TEST(HttpMessage, ParserHandlesBytewiseDelivery) {
  Response resp;
  resp.status = 200;
  resp.body = toBytes("hello body");
  const Bytes wire = resp.serialize();

  ResponseParser parser;
  std::vector<Response> got;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    auto out = parser.feed(ByteView(wire.data() + i, 1));
    for (auto& m : out) got.push_back(std::move(m));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, 200);
  EXPECT_EQ(got[0].body, toBytes("hello body"));
}

TEST(HttpMessage, ParserHandlesPipelinedMessages) {
  Request a, b;
  a.target = "/one";
  b.target = "/two";
  Bytes wire = a.serialize();
  appendBytes(wire, b.serialize());
  RequestParser parser;
  const auto msgs = parser.feed(wire);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].target, "/one");
  EXPECT_EQ(msgs[1].target, "/two");
}

TEST(HttpMessage, ParserFlagsMalformedStartLine) {
  RequestParser parser;
  parser.feed(toBytes("NONSENSE\r\n\r\n"));
  EXPECT_TRUE(parser.malformed());
}

TEST(HttpMessage, ResponseStatusLineParses) {
  ResponseParser parser;
  const auto msgs =
      parser.feed(toBytes("HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n"));
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].status, 404);
  EXPECT_EQ(msgs[0].reason, "Not Found");
}

// ---- codec golden bytes ----
//
// The wire bytes feed every trace and perfbench digest, so they are pinned
// here exactly: header names lowercase, fields in bytewise order of the
// lowercased name, and content-length appended after the stored fields.

TEST(HttpCodecGolden, RequestSortsMixedCaseHeadersByLowercaseName) {
  Request req;
  req.method = "POST";
  req.target = "/submit?q=1";
  req.headers.set("User-Agent", "ua/1");
  req.headers.set("HOST", "example.com");
  req.headers.set("Zeta", "z");   // 'Z' < 'a' bytewise, but 'z' > 'a'
  req.headers.set("accept", "*/*");
  req.headers.set("X_B", "2");    // '_' (0x5f) sorts after '-' (0x2d)
  req.headers.set("x-a", "1");
  req.headers.set("Host", "example.org");  // overwrites, keeps one field
  req.body = toBytes("abc");
  EXPECT_EQ(toString(req.serialize()),
            "POST /submit?q=1 HTTP/1.1\r\n"
            "accept: */*\r\n"
            "host: example.org\r\n"
            "user-agent: ua/1\r\n"
            "x-a: 1\r\n"
            "x_b: 2\r\n"
            "zeta: z\r\n"
            "content-length: 3\r\n"
            "\r\n"
            "abc");
}

TEST(HttpCodecGolden, NoBodyAndNoStoredLengthGetsZeroContentLength) {
  Request req;
  EXPECT_EQ(toString(req.serialize()),
            "GET / HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
  Response resp;
  resp.status = 502;
  resp.reason = statusReason(502);
  EXPECT_EQ(toString(resp.serialize()),
            "HTTP/1.1 502 Bad Gateway\r\ncontent-length: 0\r\n\r\n");
}

TEST(HttpCodecGolden, StoredContentLengthWithoutBodyIsWrittenOnce) {
  Request req;
  req.method = "HEAD";
  req.headers.set("Content-Length", "12");
  EXPECT_EQ(toString(req.serialize()),
            "HEAD / HTTP/1.1\r\ncontent-length: 12\r\n\r\n");
}

TEST(HttpCodecGolden, ResponseWithBodyAndHeaders) {
  Response resp;
  resp.status = 404;
  resp.reason = "Not Found";
  resp.headers.set("ETag", "\"e1\"");
  resp.headers.set("Content-Type", "text/plain");
  resp.body = toBytes("nope");
  EXPECT_EQ(toString(resp.serialize()),
            "HTTP/1.1 404 Not Found\r\n"
            "content-type: text/plain\r\n"
            "etag: \"e1\"\r\n"
            "content-length: 4\r\n"
            "\r\n"
            "nope");
}

// Pins a known defect (ROADMAP item 3): a parsed response keeps its
// content-length field, and serialize() appends a second one for a
// non-empty body. Fixing it changes wire bytes and every digest.
TEST(HttpCodecGolden, ReserializedParsedResponseRepeatsContentLength) {
  Response resp;
  resp.body = toBytes("hello");
  const Bytes first = resp.serialize();
  EXPECT_EQ(toString(first),
            "HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello");
  ResponseParser parser;
  const auto msgs = parser.feed(first);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(toString(msgs[0].serialize()),
            "HTTP/1.1 200 OK\r\n"
            "content-length: 5\r\n"
            "content-length: 5\r\n"
            "\r\n"
            "hello");
}

// ---- Headers against a std::map oracle ----

TEST(HttpHeaders, MatchesLowercasedMapOracle) {
  // Names chosen to stress the ordering: case variants, prefix pairs,
  // bytes >= 0x80 (never case-folded), separators on both sides of 'a'-'z'.
  const std::vector<std::string> names = {
      "content-length", "content-length2", "Content-Lengt", "a", "ab", "",
      "x-cache", "x_cache", "x-cache-", "\xC3\xA9tag", "\xC3\x89TAG",
      "etag", "Z", "zz", "host", "HOST0", "~", "\x7F", "\xFF", "via"};
  std::uint64_t x = 0x4ead3125eedULL;  // splitmix64 stream
  auto next = [&x] {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  auto randomCase = [&next](std::string s) {
    for (char& c : s) {
      if (c >= 'a' && c <= 'z' && (next() & 1)) c = static_cast<char>(c - 32);
      if (c >= 'A' && c <= 'Z' && (next() & 1)) c = static_cast<char>(c + 32);
    }
    return s;
  };

  Headers headers;
  std::map<std::string, std::string> oracle;
  for (int op = 0; op < 4096; ++op) {
    const std::string key = randomCase(names[next() % names.size()]);
    switch (next() % 3) {
      case 0: {
        std::string value(1, 'v');
        value += std::to_string(next() % 1000);
        headers.set(key, value);
        oracle[toLower(key)] = value;
        break;
      }
      case 1: {
        const auto it = oracle.find(toLower(key));
        const std::optional<std::string> want =
            it == oracle.end() ? std::nullopt
                               : std::optional<std::string>(it->second);
        ASSERT_EQ(headers.get(key), want) << "op " << op << " key " << key;
        break;
      }
      default:
        ASSERT_EQ(headers.has(key), oracle.contains(toLower(key)))
            << "op " << op << " key " << key;
    }
    const std::vector<std::pair<std::string, std::string>> got(
        headers.all().begin(), headers.all().end());
    const std::vector<std::pair<std::string, std::string>> want(
        oracle.begin(), oracle.end());
    ASSERT_EQ(got, want) << "op " << op;
  }
  EXPECT_EQ(headers.all().size(), oracle.size());
}

// ---- parser framing ----

TEST(HttpParser, PipelinedBurstSplitAtEveryOffset) {
  Request a, b, c;
  a.target = "/one";
  a.headers.set("Host", "h.test");
  b.method = "POST";
  b.target = "/two";
  b.body = toBytes("body-of-two\r\n\r\nwith a blank line");
  c.target = "/three";
  c.headers.set("Connection", "close");
  Bytes burst = a.serialize();
  appendBytes(burst, b.serialize());
  appendBytes(burst, c.serialize());

  for (std::size_t split = 0; split <= burst.size(); ++split) {
    RequestParser parser;
    auto got = parser.feed(ByteView(burst.data(), split));
    for (auto& m : parser.feed(ByteView(burst.data() + split,
                                       burst.size() - split)))
      got.push_back(std::move(m));
    ASSERT_FALSE(parser.malformed()) << "split " << split;
    ASSERT_EQ(got.size(), 3u) << "split " << split;
    EXPECT_EQ(got[0].target, "/one");
    EXPECT_EQ(got[0].host(), "h.test");
    EXPECT_EQ(got[1].method, "POST");
    EXPECT_EQ(got[1].body, b.body);
    EXPECT_EQ(got[2].headers.get("connection").value_or(""), "close");
    EXPECT_EQ(got[1].headers.get("content-length").value_or(""),
              std::to_string(b.body.size()));
  }
}

TEST(HttpParser, HeaderBombTripsPastSixtyFourKiB) {
  RequestParser parser;
  parser.feed(toBytes("GET / HTTP/1.1\r\nhost: x"));
  parser.feed(Bytes(64 * 1024 - 23, 'a'));  // exactly 64 KiB buffered
  EXPECT_FALSE(parser.malformed());
  parser.feed(toBytes("a"));
  EXPECT_TRUE(parser.malformed());
  EXPECT_TRUE(parser.feed(toBytes("\r\n\r\n")).empty());
}

TEST(HttpParser, HeaderBombCountsOnlyUnconsumedBytes) {
  // A 60 KiB body is consumed in the same feed that starts the next header
  // block; only the unconsumed 64 KiB of that block counts toward the limit.
  Response big;
  big.body.assign(60 * 1024, 'b');
  Bytes wire = big.serialize();
  appendBytes(wire, toBytes("HTTP/1.1 200 OK\r\nx: "));
  const std::size_t head = 20;  // "HTTP/1.1 200 OK\r\nx: "
  appendBytes(wire, Bytes(64 * 1024 - head, 'a'));

  ResponseParser parser;
  auto got = parser.feed(wire);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].body.size(), 60 * 1024u);
  EXPECT_FALSE(parser.malformed());

  got = parser.feed(toBytes("a\r\n\r\n"));
  EXPECT_FALSE(parser.malformed());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].headers.get("x").value_or("").size(), 64 * 1024 - head + 1);

  parser.feed(Bytes(64 * 1024 + 1, 'a'));
  EXPECT_TRUE(parser.malformed());
}

// ---- TLS ----

struct TlsWorld : MiniWorld {
  TlsAcceptor acceptor{"site.test", sim};
  transport::TcpListener::Ptr listener;
  TlsStream::Ptr server_tls;
  Bytes server_received;

  TlsWorld() {
    listener = server.tcpListen(443, [this](transport::TcpSocket::Ptr sock) {
      acceptor.accept(sock, [this](TlsStream::Ptr tls) {
        server_tls = tls;
        if (tls == nullptr) return;
        tls->setOnData([this](ByteView data) {
          appendBytes(server_received, data);
          server_tls->send(toBytes("pong"));
        });
      });
    });
  }

  TlsStream::Ptr connectTls(TlsSessionCache* cache,
                            const std::string& fingerprint = "chrome-56") {
    TlsStream::Ptr result;
    bool done = false;
    auto holder = std::make_shared<transport::TcpSocket::Ptr>();
    *holder = client.tcpConnect(
        net::Endpoint{server_node.primaryIp(), 443},
        [&, holder](bool ok) {
          if (!ok) {
            done = true;
            return;
          }
          TlsClientOptions opts;
          opts.sni = "site.test";
          opts.fingerprint = fingerprint;
          TlsStream::clientHandshake(*holder, sim, opts, cache,
                                     [&](TlsStream::Ptr tls) {
                                       result = tls;
                                       done = true;
                                     });
        });
    runUntilDone([&] { return done; });
    return result;
  }
};

TEST(Tls, HandshakeEstablishesAndCarriesData) {
  TlsWorld w;
  auto tls = w.connectTls(nullptr);
  ASSERT_NE(tls, nullptr);
  EXPECT_TRUE(tls->connected());
  EXPECT_FALSE(tls->resumed());

  Bytes reply;
  tls->setOnData([&](ByteView data) { appendBytes(reply, data); });
  tls->send(toBytes("ping"));
  w.runUntilDone([&] { return reply.size() >= 4; });
  EXPECT_EQ(toString(reply), "pong");
  EXPECT_EQ(toString(w.server_received), "ping");
}

TEST(Tls, SessionTicketEnablesResumption) {
  TlsWorld w;
  TlsSessionCache cache;
  auto first = w.connectTls(&cache);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->resumed());
  first->close();

  auto second = w.connectTls(&cache);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(second->resumed());
}

TEST(Tls, ResumptionIsFasterThanFullHandshake) {
  TlsWorld w;
  TlsSessionCache cache;
  sim::Time t0 = w.sim.now();
  auto first = w.connectTls(&cache);
  const sim::Time full_time = w.sim.now() - t0;
  ASSERT_NE(first, nullptr);
  first->close();

  t0 = w.sim.now();
  auto second = w.connectTls(&cache);
  const sim::Time resumed_time = w.sim.now() - t0;
  ASSERT_NE(second, nullptr);
  EXPECT_LT(resumed_time, full_time - 50 * sim::kMillisecond);
}

TEST(Tls, WireBytesAreNotPlaintext) {
  // Tap the border link and verify app data is unreadable but the SNI is.
  struct Tap : net::PacketFilter {
    Bytes all;
    Verdict onPacket(net::Packet& pkt, net::Direction, net::Link&) override {
      appendBytes(all, pkt.payload);
      return Verdict::kPass;
    }
  };
  TlsWorld w;
  Tap tap;
  w.world.borderLink().addFilter(&tap);
  auto tls = w.connectTls(nullptr);
  ASSERT_NE(tls, nullptr);
  tls->send(toBytes("super secret scholar query"));
  w.runUntilDone([&] { return !w.server_received.empty(); });
  const std::string wire = toString(tap.all);
  EXPECT_EQ(wire.find("super secret scholar query"), std::string::npos);
  EXPECT_NE(wire.find("site.test"), std::string::npos);  // SNI in clear
}

// ---- PAC ----

TEST(Pac, EvaluatesWhitelist) {
  PacScript pac;
  const auto proxy =
      ProxyDecision::httpProxy(net::Endpoint{net::Ipv4(10, 3, 0, 1), 8080});
  pac.addDomainRule("scholar.google.com", proxy);
  pac.setDefault(ProxyDecision::direct());
  EXPECT_EQ(pac.evaluate("scholar.google.com"), proxy);
  EXPECT_EQ(pac.evaluate("sub.scholar.google.com"), proxy);
  EXPECT_EQ(pac.evaluate("www.amazon.com"), ProxyDecision::direct());
}

TEST(Pac, JavaScriptRoundTrip) {
  PacScript pac;
  pac.addDomainRule("scholar.google.com",
                    ProxyDecision::httpProxy({net::Ipv4(10, 3, 0, 1), 8080}));
  pac.addGlobRule("*.edu.cn", ProxyDecision::direct());
  pac.addDomainRule("torproject.org",
                    ProxyDecision::socks({net::Ipv4(127, 0, 0, 1), 9050}));
  pac.setDefault(ProxyDecision::direct());

  const std::string js = pac.toJavaScript();
  EXPECT_NE(js.find("FindProxyForURL"), std::string::npos);
  EXPECT_NE(js.find("dnsDomainIs(host, \"scholar.google.com\")"),
            std::string::npos);
  EXPECT_NE(js.find("PROXY 10.3.0.1:8080"), std::string::npos);

  const auto parsed = PacScript::parseJavaScript(js);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rules().size(), 3u);
  EXPECT_EQ(parsed->evaluate("scholar.google.com"),
            pac.evaluate("scholar.google.com"));
  EXPECT_EQ(parsed->evaluate("x.edu.cn"), ProxyDecision::direct());
  EXPECT_EQ(parsed->evaluate("torproject.org"),
            ProxyDecision::socks({net::Ipv4(127, 0, 0, 1), 9050}));
}

TEST(Pac, FailoverChainEmitsAndParsesInOrder) {
  const net::Endpoint primary{net::Ipv4(10, 3, 0, 1), 8080};
  const net::Endpoint backup{net::Ipv4(10, 3, 0, 2), 8080};
  auto decision = ProxyDecision::httpProxy(primary);
  decision.addFallback(ProxyHop{ProxyKind::kHttpProxy, backup})
      .addDirectFallback();

  PacScript pac;
  pac.addDomainRule("scholar.google.com", decision);
  pac.setDefault(ProxyDecision::direct());
  const std::string js = pac.toJavaScript();
  EXPECT_NE(js.find("PROXY 10.3.0.1:8080; PROXY 10.3.0.2:8080; DIRECT"),
            std::string::npos);

  const auto parsed = PacScript::parseJavaScript(js);
  ASSERT_TRUE(parsed.has_value());
  const auto round = parsed->evaluate("scholar.google.com");
  EXPECT_EQ(round, decision);
  const auto hops = round.hops();
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0].proxy, primary);  // order preserved: primary first
  EXPECT_EQ(hops[1].proxy, backup);
  EXPECT_EQ(hops[2].kind, ProxyKind::kDirect);
}

TEST(Pac, FailoverChainToleratesWhitespaceBetweenHops) {
  const std::string js =
      "function FindProxyForURL(url, host) {\n"
      "  return \"PROXY 1.2.3.4:8080 ;  PROXY 5.6.7.8:8080;DIRECT\";\n}\n";
  const auto parsed = PacScript::parseJavaScript(js);
  ASSERT_TRUE(parsed.has_value());
  const auto d = parsed->defaultDecision();
  EXPECT_EQ(d.kind, ProxyKind::kHttpProxy);
  EXPECT_EQ(d.proxy, (net::Endpoint{net::Ipv4(1, 2, 3, 4), 8080}));
  ASSERT_EQ(d.fallbacks.size(), 2u);
  EXPECT_EQ(d.fallbacks[0].proxy, (net::Endpoint{net::Ipv4(5, 6, 7, 8), 8080}));
  EXPECT_EQ(d.fallbacks[1].kind, ProxyKind::kDirect);
}

TEST(Pac, FailoverChainRejectsEmptySegments) {
  const auto make = [](const std::string& ret) {
    return PacScript::parseJavaScript(
        "function FindProxyForURL(url, host) {\n  return \"" + ret +
        "\";\n}\n");
  };
  EXPECT_FALSE(make("PROXY 1.2.3.4:8080;").has_value());   // trailing ';'
  EXPECT_FALSE(make("PROXY 1.2.3.4:8080;;DIRECT").has_value());
  EXPECT_FALSE(make(";DIRECT").has_value());
  EXPECT_TRUE(make("PROXY 1.2.3.4:8080;DIRECT").has_value());
}

TEST(Pac, ParserRejectsOutsideDialect) {
  EXPECT_FALSE(PacScript::parseJavaScript("function f() { alert(1); }")
                   .has_value());
  EXPECT_FALSE(PacScript::parseJavaScript(
                   "function FindProxyForURL(url, host) {\n"
                   "  if (evilCall(host, \"x\")) return \"DIRECT\";\n"
                   "  return \"DIRECT\";\n}")
                   .has_value());
  EXPECT_FALSE(PacScript::parseJavaScript("").has_value());
}

// ---- server + client ----

TEST(HttpServer, ServesRoutedRequests) {
  MiniWorld w;
  ServerOptions opts;
  opts.port = 80;
  HttpServer server(w.server, opts);
  server.route("/hello", [](const Request&, HttpServer::Respond respond) {
    Response resp;
    resp.body = toBytes("world");
    respond(std::move(resp));
  });

  std::optional<Response> got;
  auto holder = std::make_shared<transport::TcpSocket::Ptr>();
  *holder = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 80}, [&, holder](bool ok) {
        ASSERT_TRUE(ok);
        Request req;
        req.target = "/hello";
        req.headers.set("host", "site.test");
        HttpClient::fetchOn(*holder, w.sim, req, sim::kMinute,
                            [&](std::optional<Response> r) { got = r; });
      });
  w.runUntilDone([&] { return got.has_value(); });
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(toString(got->body), "world");
}

TEST(HttpServer, KeepAliveServesSequentialRequests) {
  MiniWorld w;
  ServerOptions opts;
  opts.port = 80;
  HttpServer server(w.server, opts);
  server.route("/", [](const Request& req, HttpServer::Respond respond) {
    Response resp;
    resp.body = toBytes("path=" + req.target);
    respond(std::move(resp));
  });

  std::vector<std::string> bodies;
  auto holder = std::make_shared<transport::TcpSocket::Ptr>();
  *holder = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 80}, [&, holder](bool ok) {
        ASSERT_TRUE(ok);
        Request req;
        req.target = "/a";
        HttpClient::fetchOn(*holder, w.sim, req, sim::kMinute,
                            [&, holder](std::optional<Response> r) {
                              ASSERT_TRUE(r.has_value());
                              bodies.push_back(toString(r->body));
                              Request second;
                              second.target = "/b";
                              HttpClient::fetchOn(
                                  *holder, w.sim, second, sim::kMinute,
                                  [&](std::optional<Response> r2) {
                                    ASSERT_TRUE(r2.has_value());
                                    bodies.push_back(toString(r2->body));
                                  });
                            });
      });
  w.runUntilDone([&] { return bodies.size() == 2; });
  EXPECT_EQ(bodies[0], "path=/a");
  EXPECT_EQ(bodies[1], "path=/b");
  EXPECT_EQ(server.requestsServed(), 2u);
}

TEST(HttpServer, UnroutedPathReturns404) {
  MiniWorld w;
  ServerOptions opts;
  opts.port = 80;
  HttpServer server(w.server, opts);
  std::optional<Response> got;
  auto holder = std::make_shared<transport::TcpSocket::Ptr>();
  *holder = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 80}, [&, holder](bool ok) {
        ASSERT_TRUE(ok);
        Request req;
        req.target = "/nowhere";
        HttpClient::fetchOn(*holder, w.sim, req, sim::kMinute,
                            [&](std::optional<Response> r) { got = r; });
      });
  w.runUntilDone([&] { return got.has_value(); });
  EXPECT_EQ(got->status, 404);
}

// ---- SOCKS ----

TEST(Socks, WireHelpersRoundTrip) {
  EXPECT_EQ(socksGreeting(), (Bytes{0x05, 0x01, 0x00}));
  const auto req = socksRequest(
      transport::ConnectTarget::byHostname("scholar.google.com", 443));
  EXPECT_EQ(req[0], 0x05);
  EXPECT_EQ(req[3], 0x03);  // domain atyp
  EXPECT_EQ(req[4], 18);    // hostname length
}

TEST(Socks, EndToEndThroughProxy) {
  MiniWorld w;
  // Echo origin on the server host, port 7000.
  auto echo_listener =
      w.server.tcpListen(7000, [](transport::TcpSocket::Ptr sock) {
        sock->setOnData([sock](ByteView data) {
          sock->send(Bytes(data.begin(), data.end()));
        });
      });

  // SOCKS proxy also on the server host, port 1080.
  SocksServer socks([&w](transport::ConnectTarget target,
                         transport::Stream::Ptr client,
                         std::function<void(bool)> respond) {
    w.server.directConnector()->connect(
        target, [client, respond](transport::Stream::Ptr upstream) {
          respond(upstream != nullptr);
          if (upstream != nullptr) transport::bridgeStreams(client, upstream);
        });
  });
  auto socks_listener = w.server.tcpListen(
      1080,
      [&socks](transport::TcpSocket::Ptr sock) { socks.accept(sock); });

  auto connector = std::make_shared<SocksConnector>(
      w.client, net::Endpoint{w.server_node.primaryIp(), 1080});
  Bytes echoed;
  transport::Stream::Ptr stream_keep;
  connector->connect(
      transport::ConnectTarget::byAddress(
          {w.server_node.primaryIp(), 7000}),
      [&](transport::Stream::Ptr stream) {
        ASSERT_NE(stream, nullptr);
        stream_keep = stream;
        stream->setOnData([&](ByteView data) { appendBytes(echoed, data); });
        stream->send(toBytes("through socks"));
      });
  w.runUntilDone([&] { return echoed.size() >= 13; });
  EXPECT_EQ(toString(echoed), "through socks");
}

TEST(Socks, RefusedTargetReportsFailure) {
  MiniWorld w;
  SocksServer socks([](transport::ConnectTarget, transport::Stream::Ptr,
                       std::function<void(bool)> respond) { respond(false); });
  auto socks_listener = w.server.tcpListen(
      1080,
      [&socks](transport::TcpSocket::Ptr sock) { socks.accept(sock); });
  auto connector = std::make_shared<SocksConnector>(
      w.client, net::Endpoint{w.server_node.primaryIp(), 1080});
  bool done = false;
  transport::Stream::Ptr got = nullptr;
  connector->connect(transport::ConnectTarget::byHostname("x.test", 80),
                     [&](transport::Stream::Ptr stream) {
                       done = true;
                       got = stream;
                     });
  w.runUntilDone([&] { return done; });
  EXPECT_EQ(got, nullptr);
}

// ---- origin ----

TEST(Origin, HomepageListsSubresourcesAndRecordsAccounts) {
  MiniWorld w;
  WebOrigin origin(w.server, PageSpec::scholarDefault());
  EXPECT_EQ(origin.spec().subresources.size(), 5u);
  EXPECT_TRUE(origin.spec().account_recording);
  EXPECT_EQ(origin.pageViews(), 0u);
}

TEST(Origin, HttpPortRedirectsToHttps) {
  MiniWorld w;
  WebOrigin origin(w.server, PageSpec::scholarDefault());
  std::optional<Response> got;
  auto holder = std::make_shared<transport::TcpSocket::Ptr>();
  *holder = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 80}, [&, holder](bool ok) {
        ASSERT_TRUE(ok);
        Request req;
        req.target = "/";
        req.headers.set("host", "scholar.google.com");
        HttpClient::fetchOn(*holder, w.sim, req, sim::kMinute,
                            [&](std::optional<Response> r) { got = r; });
      });
  w.runUntilDone([&] { return got.has_value(); });
  EXPECT_EQ(got->status, 301);
  EXPECT_EQ(got->headers.get("location").value_or(""),
            "https://scholar.google.com/");
}

}  // namespace
}  // namespace sc::http

namespace sc::http {
namespace {

TEST(HttpServer, ConnectHandlerTakesOverTheStream) {
  MiniWorld w;
  ServerOptions opts;
  opts.port = 8080;
  HttpServer proxy(w.server, opts);
  Bytes tunneled;
  proxy.setConnectHandler([&](const Request& req, transport::Stream::Ptr client,
                              HttpServer::Respond respond) {
    EXPECT_EQ(req.target, "example.com:443");
    Response ok;
    ok.status = 200;
    ok.reason = "Connection Established";
    respond(ok);
    client->setOnData([&tunneled, client](ByteView d) {
      appendBytes(tunneled, d);
      client->send(toBytes("raw-bytes-back"));
    });
  });

  Bytes received;
  auto holder = std::make_shared<transport::TcpSocket::Ptr>();
  *holder = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 8080}, [&, holder](bool ok) {
        ASSERT_TRUE(ok);
        Request connect_req;
        connect_req.method = "CONNECT";
        connect_req.target = "example.com:443";
        connect_req.headers.set("host", connect_req.target);
        HttpClient::fetchOn(*holder, w.sim, connect_req, sim::kMinute,
                            [&, holder](std::optional<Response> resp) {
                              ASSERT_TRUE(resp.has_value());
                              ASSERT_EQ(resp->status, 200);
                              (*holder)->setOnData([&](ByteView d) {
                                appendBytes(received, d);
                              });
                              // Post-CONNECT bytes are NOT HTTP.
                              (*holder)->send(Bytes{0x16, 0x03, 0x03, 0x00});
                            });
      });
  w.runUntilDone([&] { return received.size() >= 14; });
  EXPECT_EQ(toString(received), "raw-bytes-back");
  EXPECT_EQ(tunneled, (Bytes{0x16, 0x03, 0x03, 0x00}));
}

TEST(HttpServer, MalformedRequestClosesSession) {
  MiniWorld w;
  ServerOptions opts;
  opts.port = 8080;
  HttpServer server(w.server, opts);
  bool closed = false;
  auto sock = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 8080}, [](bool) {});
  sock->setOnClose([&] { closed = true; });
  sock->send(toBytes("TOTAL GARBAGE\r\n\r\n"));
  w.runUntilDone([&] { return closed; });
  EXPECT_EQ(server.activeSessions(), 0u);
}

TEST(HttpServer, PeerAddressIsStampedOntoRequests) {
  MiniWorld w;
  ServerOptions opts;
  opts.port = 8080;
  HttpServer server(w.server, opts);
  std::string seen_peer;
  server.route("/", [&](const Request& req, HttpServer::Respond respond) {
    seen_peer = req.headers.get(HttpServer::kPeerHeader).value_or("");
    respond(Response{});
  });
  std::optional<Response> got;
  auto holder = std::make_shared<transport::TcpSocket::Ptr>();
  *holder = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 8080}, [&, holder](bool ok) {
        ASSERT_TRUE(ok);
        Request req;
        HttpClient::fetchOn(*holder, w.sim, req, sim::kMinute,
                            [&](std::optional<Response> r) { got = r; });
      });
  w.runUntilDone([&] { return got.has_value(); });
  EXPECT_EQ(seen_peer, w.client_node.primaryIp().str());
}

TEST(HttpClient, TimesOutOnSilentServer) {
  MiniWorld w;
  // A listener that accepts and never replies.
  std::vector<transport::TcpSocket::Ptr> held;
  auto listener = w.server.tcpListen(9000, [&](transport::TcpSocket::Ptr s) {
    held.push_back(s);
  });
  bool done = false;
  std::optional<Response> got = Response{};
  auto holder = std::make_shared<transport::TcpSocket::Ptr>();
  *holder = w.client.tcpConnect(
      net::Endpoint{w.server_node.primaryIp(), 9000}, [&, holder](bool ok) {
        ASSERT_TRUE(ok);
        Request req;
        HttpClient::fetchOn(*holder, w.sim, req, 2 * sim::kSecond,
                            [&](std::optional<Response> r) {
                              done = true;
                              got = r;
                            });
      });
  w.runUntilDone([&] { return done; });
  EXPECT_FALSE(got.has_value());
}

}  // namespace
}  // namespace sc::http
