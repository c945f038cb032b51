package crypto

import (
	"strconv"
	"sync"

	"quorumselect/internal/ids"
)

// ShardDomain returns the signing domain of one shard group of a fleet
// (internal/fleet). Every signature a shard produces or accepts is
// domain-separated under it, which is what makes the unsigned routing
// label on wire.ShardEnvelope safe: a frame relabeled to another shard
// fails that shard's check where it lands (VerifyShard) and is dropped
// and counted instead of becoming protocol input.
func ShardDomain(shard int) string { return string(appendShardDomain(nil, shard)) }

func appendShardDomain(dst []byte, shard int) []byte {
	return strconv.AppendInt(append(dst, "qs/shard/"...), int64(shard), 10)
}

// DomainAuth wraps an Authenticator with domain separation: every sign
// and verify runs over domain || 0x00 || data instead of the raw data.
// Two DomainAuths over the same inner ring but different domains accept
// none of each other's signatures, which is how the fleet keeps shard
// groups cryptographically disjoint: a frame signed for shard 2 and
// misrouted to shard 5 fails verification there even though both shards
// share one keyring per process.
//
// The NUL terminator makes the wrapping injective as long as domains
// themselves contain no NUL byte (enforced by NewDomainAuth): no
// (domain, data) pair collides with any other, so domain separation
// never weakens the inner authenticator.
type DomainAuth struct {
	inner  Authenticator
	prefix []byte // domain || 0x00
}

var _ Authenticator = (*DomainAuth)(nil)

// NewDomainAuth wraps inner under the given domain. Domains must be
// non-empty and NUL-free; violating either panics (a misconfigured
// domain is a programming error, not a runtime condition).
func NewDomainAuth(inner Authenticator, domain string) *DomainAuth {
	if domain == "" {
		panic("crypto: empty signing domain")
	}
	for i := 0; i < len(domain); i++ {
		if domain[i] == 0 {
			panic("crypto: signing domain contains NUL")
		}
	}
	prefix := make([]byte, 0, len(domain)+1)
	prefix = append(prefix, domain...)
	prefix = append(prefix, 0)
	return &DomainAuth{inner: inner, prefix: prefix}
}

// wrap returns domain || 0x00 || data — the bytes the inner
// authenticator actually signs.
func (a *DomainAuth) wrap(data []byte) []byte {
	out := make([]byte, 0, len(a.prefix)+len(data))
	out = append(out, a.prefix...)
	return append(out, data...)
}

// Sign implements Authenticator.
func (a *DomainAuth) Sign(as ids.ProcessID, data []byte) ([]byte, error) {
	return a.inner.Sign(as, a.wrap(data))
}

// Verify implements Authenticator.
func (a *DomainAuth) Verify(signer ids.ProcessID, data []byte, sig []byte) error {
	bp := wrapBufs.Get().(*[]byte)
	return verifyWrapped(a.inner, signer, bp, append((*bp)[:0], a.prefix...), data, sig)
}

// VerifyShard checks sig over data under shard's signing domain: the
// check NewDomainAuth(inner, ShardDomain(shard)).Verify makes, for a
// receiver that learns the shard from the frame and holds no wrapper
// per shard.
func VerifyShard(inner Authenticator, shard uint32, signer ids.ProcessID, data, sig []byte) error {
	bp := wrapBufs.Get().(*[]byte)
	return verifyWrapped(inner, signer, bp, append(appendShardDomain((*bp)[:0], int(shard)), 0), data, sig)
}

// wrapBufs lends the domain || 0x00 || data buffers verification
// builds; Verify retains nothing, so each one returns as soon as the
// verdict is in.
var wrapBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// verifyWrapped checks sig over prefix || data, where prefix was
// appended to the pooled buffer bp, and returns the buffer to the pool.
func verifyWrapped(inner Authenticator, signer ids.ProcessID, bp *[]byte, prefix, data, sig []byte) error {
	buf := append(prefix, data...)
	err := inner.Verify(signer, buf, sig)
	*bp = buf[:0]
	wrapBufs.Put(bp)
	return err
}
