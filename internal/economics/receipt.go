package economics

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Receipt is a carrier's signed acknowledgment of having carried part of a
// flow: hop HopIndex of flow FlowID, Bytes bytes, on behalf of Customer.
// Receipts make §3's "easily cross-verifiable account" non-repudiable: a
// provider disputing a ledger entry can be confronted with its own
// signature, and a provider inflating its claims cannot produce receipts
// for traffic it never carried.
type Receipt struct {
	Carrier  string
	Customer string // the user's home ISP
	FlowID   uint64
	HopIndex int
	Bytes    int64
	AtS      float64
	Sig      []byte
}

// Receipt errors.
var (
	ErrReceiptSig  = errors.New("economics: receipt signature invalid")
	ErrReceiptKey  = errors.New("economics: no key for carrier")
	ErrChainBroken = errors.New("economics: receipt chain inconsistent")
	ErrChainEmpty  = errors.New("economics: empty receipt chain")
)

func (r *Receipt) signedBytes() []byte {
	b := make([]byte, 0, 64)
	appendStr2 := func(s string) {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	appendStr2(r.Carrier)
	appendStr2(r.Customer)
	b = binary.LittleEndian.AppendUint64(b, r.FlowID)
	b = binary.LittleEndian.AppendUint32(b, uint32(r.HopIndex))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Bytes))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.AtS))
	return b
}

// SignWith signs with the carrier's key via the signer callback
// (typically auth.Authenticator.Sign).
func (r *Receipt) SignWith(sign func([]byte) []byte) {
	r.Sig = sign(r.signedBytes())
}

// Verify checks the receipt against the carrier's public key.
//
//lint:allow unreached internal/core/core_test.go checks Network.Receipts chains through VerifyChain, which calls it
func (r *Receipt) Verify(key ed25519.PublicKey) error {
	if !ed25519.Verify(key, r.signedBytes(), r.Sig) {
		return fmt.Errorf("%w: carrier %q hop %d", ErrReceiptSig, r.Carrier, r.HopIndex)
	}
	return nil
}

// VerifyChain validates a flow's complete receipt chain: every signature
// verifies against its carrier's key, all receipts agree on flow, customer
// and bytes, and hop indices are 0..n-1 in order.
//
//lint:allow unreached internal/core/core_test.go checks Network.Receipts chains with it
func VerifyChain(chain []Receipt, keys map[string]ed25519.PublicKey) error {
	if len(chain) == 0 {
		return ErrChainEmpty
	}
	first := chain[0]
	for i, r := range chain {
		key, ok := keys[r.Carrier]
		if !ok {
			return fmt.Errorf("%w: %q", ErrReceiptKey, r.Carrier)
		}
		if err := r.Verify(key); err != nil {
			return err
		}
		if r.FlowID != first.FlowID || r.Customer != first.Customer || r.Bytes != first.Bytes {
			return fmt.Errorf("%w: receipt %d diverges", ErrChainBroken, i)
		}
		if r.HopIndex != i {
			return fmt.Errorf("%w: hop %d at position %d", ErrChainBroken, r.HopIndex, i)
		}
	}
	return nil
}

// ApplyChain records a verified chain into a ledger — the receipt-backed
// form of RecordPath.
//
//lint:allow unreached internal/core/core_test.go audits a ledger from Network.Receipts chains with it
func ApplyChain(l *Ledger, chain []Receipt, keys map[string]ed25519.PublicKey) error {
	if err := VerifyChain(chain, keys); err != nil {
		return err
	}
	owners := make([]string, len(chain))
	for i, r := range chain {
		owners[i] = r.Carrier
	}
	return l.RecordPath(chain[0].Customer, owners, chain[0].Bytes)
}
