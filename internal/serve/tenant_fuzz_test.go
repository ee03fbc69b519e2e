package serve

import (
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"

	"rotary/internal/admission"
)

// FuzzTenantRequest throws adversarial tenant ids at the serve
// request surface: control characters, oversized ids, exotic unicode,
// quota-gated tenants, and (via the raw second argument) invalid UTF-8
// that the JSON layer can never deliver. Whatever the input, the server
// must answer with a typed Response, never panic, never admit a tenant
// id ValidateTenant rejects, and never echo one tenant's id in another
// submission's reply.
func FuzzTenantRequest(f *testing.F) {
	seeds := []struct {
		line   string
		tenant string
	}{
		{`{"op":"submit","tenant":"alpha","statement":"q1 ACC MIN 60% WITHIN 900 SECONDS"}`, "alpha"},
		{`{"op":"submit","tenant":"","statement":"q3 ACC MIN 55% WITHIN 900 SECONDS"}`, ""},
		{`{"op":"submit","tenant":"badctl","statement":"q1 ACC MIN 60% WITHIN 900 SECONDS"}`, "x\x01y"},
		{`{"op":"submit","tenant":"` + strings.Repeat("t", 300) + `","statement":"q1 ACC MIN 60% WITHIN 900 SECONDS"}`, strings.Repeat("t", 300)},
		{`{"op":"submit","tenant":"日本語テナント","statement":"q5 ACC MIN 70% WITHIN 900 SECONDS"}`, "日本語"},
		{`{"op":"submit","tenant":"default","statement":"q6 ACC MIN 50% WITHIN 900 SECONDS"}`, "default"},
		{`{"op":"status","tenant":"alpha","id":"nope"}`, "\xff\xfe"},
		{`{"op":"stats","tenant":""}`, "\x7f"},
		{`{"op":"submit","tenant":"quoted\"label\\injection","statement":"q1 ACC MIN 60% WITHIN 900 SECONDS"}`, `a"b\c`},
		{`{"op":"advance","seconds":5,"tenant":"whatever"}`, string([]byte{0xc3, 0x28})},
	}
	for _, s := range seeds {
		f.Add([]byte(s.line), []byte(s.tenant))
	}

	// One live server per fuzz process: a real executor with a tenant
	// quota table and fair-share arbitration behind it, driven through
	// the same handle() the serve loop uses. State accumulates across
	// iterations — exactly the long-lived-daemon surface we care about.
	d := newDaemon(f, daemon{admit: &admission.Config{Tenants: admission.TenantTable{
		Default: admission.TenantQuota{RatePerSec: 2, Burst: 4, MaxActive: 8, MaxPending: 8},
		Tenants: map[string]admission.TenantQuota{"alpha": {Weight: 3}},
	}}})
	d.boot(f)
	srv := d.srv

	f.Fuzz(func(t *testing.T, line, rawTenant []byte) {
		// ValidateTenant itself must be total over arbitrary bytes — this
		// is the only path that can see invalid UTF-8, since the JSON
		// layer replaces it with U+FFFD before a Message exists.
		if err := ValidateTenant(string(rawTenant)); err == nil {
			if !utf8.ValidString(string(rawTenant)) || len(rawTenant) > maxTenantBytes {
				t.Fatalf("ValidateTenant accepted %q", rawTenant)
			}
		}

		var m Message
		if err := json.Unmarshal(line, &m); err != nil {
			// serveConn answers bad-request for unparsable lines; there is
			// no tenant surface left to probe.
			return
		}
		resp := srv.handle(m)
		if !resp.OK && resp.Code == "" {
			t.Fatalf("untyped failure for %q: %+v", line, resp)
		}
		if m.Op == "submit" {
			if resp.Tenant != "" && resp.Tenant != m.Tenant {
				t.Fatalf("cross-tenant leak: submitted %q, reply echoes %q", m.Tenant, resp.Tenant)
			}
			if ValidateTenant(m.Tenant) != nil && resp.OK {
				t.Fatalf("invalid tenant id %q admitted: %+v", m.Tenant, resp)
			}
		}
		// The server must stay responsive whatever the request did.
		if again := srv.handle(Message{Op: "stats"}); !again.OK && again.Code == "" {
			t.Fatalf("server wedged after %q: %+v", line, again)
		}
	})
}
