package tracediff

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// The regexp masking normalizeText replaced, kept as the fuzz oracle.
var (
	oracleHexPrefixed = regexp.MustCompile(`0x[0-9a-fA-F]+`)
	oracleBareHex     = regexp.MustCompile(`\b[0-9a-fA-F]{4,}\b`)
)

func oracleNormalizeText(c *Canonicalizer, s string) string {
	if s == "" {
		return s
	}
	if c.version != "" {
		s = strings.ReplaceAll(s, c.version, placeholderVer)
	}
	s = strings.ReplaceAll(s, "injection", placeholderMode)
	s = strings.ReplaceAll(s, "exploit", placeholderMode)
	s = oracleHexPrefixed.ReplaceAllStringFunc(s, func(tok string) string {
		v, err := strconv.ParseUint(tok[2:], 16, 64)
		if err != nil {
			return tok
		}
		return c.classify(v)
	})
	return oracleBareHex.ReplaceAllStringFunc(s, func(tok string) string {
		if !strings.ContainsAny(tok, "0123456789") {
			return tok
		}
		v, err := strconv.ParseUint(tok, 16, 64)
		if err != nil {
			return tok
		}
		return c.classify(v)
	})
}

// oracleEventString is the fmt rendering Event.String replaced.
func oracleEventString(e Event) string {
	var b strings.Builder
	b.WriteString(e.Kind)
	if e.Dom != 0 {
		fmt.Fprintf(&b, " dom=%d", e.Dom)
	}
	if e.Nr != 0 {
		fmt.Fprintf(&b, " nr=%d", e.Nr)
	}
	if e.Addr != "0" {
		fmt.Fprintf(&b, " addr=%s", e.Addr)
	}
	if e.Val != "0" {
		fmt.Fprintf(&b, " val=%s", e.Val)
	}
	if e.Label != "" {
		fmt.Fprintf(&b, " label=%q", e.Label)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " detail=%q", e.Detail)
	}
	if e.StateAudit {
		b.WriteString(" [state-audit]")
	}
	return b.String()
}

// FuzzNormalizeText checks the hand-written hex masking against the
// regexps it replaced, on a known version (symbolic layout roles) and
// an unknown one, and the event rendering built on it against fmt.
func FuzzNormalizeText(f *testing.F) {
	for _, s := range []string{
		"XSA-148 exploit on Xen 4.6: wrote 0xffff830000000000",
		"injection: frame 0x7c0 dead beef c0ffee 1a2b3c4d_x",
		"0x0x5 10x5 0x 0xg 0x10000000000000000 ffffffffffffffffff1",
		"mfn 2a3f «x» é1234 abcd 12345 _1234 1234_ a1b2-c3d4",
	} {
		f.Add(s)
	}
	cs := []*Canonicalizer{
		NewCanonicalizer("4.6", campaign.MachineFrames),
		NewCanonicalizer("9.9", campaign.MachineFrames),
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, c := range cs {
			got, want := c.normalizeText(s), oracleNormalizeText(c, s)
			if got != want {
				t.Fatalf("version %q: normalizeText(%q) = %q, regexp oracle %q", c.version, s, got, want)
			}
			e := Event{Kind: "scenario_step", Dom: 1, Nr: int32(len(s)), Addr: "0", Val: "7", Label: s, Detail: got, StateAudit: len(s)%2 == 0}
			if got, want := e.String(), oracleEventString(e); got != want {
				t.Fatalf("Event.String() = %q, fmt oracle %q", got, want)
			}
		}
	})
}
