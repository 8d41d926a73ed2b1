// Package frame defines the messages OpenSpace spacecraft, user terminals
// and home ISPs exchange. The paper's first requirement (§2, item 1) is
// "an open and standardized communication protocol for all spacecraft in
// the system"; this package holds that protocol's message vocabulary:
// beacons carrying orbital information, which users select access
// satellites from, and the RADIUS-style authentication exchange between a
// user and its home ISP.
//
// The simulator passes these messages as in-memory structs between the
// association state machine (internal/assoc) and the federation core
// (internal/core). It does not serialise them, so the package defines no
// wire encoding; the Type codes fix each message's identity for one.
package frame

// Type identifies a message type.
type Type uint8

// Message type codes.
const (
	TypeBeacon Type = iota + 1
	TypePairRequest
	TypePairResponse
	TypeAuthRequest
	TypeAuthChallenge
	TypeAuthResponse
	TypeAuthResult
	TypeData
	TypeHandoverNotice
	TypeAck
)

// Capability is the bitmask of link technologies a satellite supports.
// RF is mandatory in OpenSpace (§2.1); laser is the optional upgrade.
type Capability uint16

// Capability bits.
const (
	CapRF Capability = 1 << iota
	CapLaser
	CapGroundKu
	CapGroundKa
)

// OrbitalState is the compact orbital element set carried in beacons so
// any receiver can propagate the sender's trajectory — the paper's
// "standardized periodic beacons that include orbital information" (§2.2).
type OrbitalState struct {
	SemiMajorAxisKm float64
	Eccentricity    float64
	InclinationDeg  float64
	RAANDeg         float64
	ArgPerigeeDeg   float64
	MeanAnomalyDeg  float64
	EpochS          float64 // seconds since the shared network epoch
}

// Beacon is the periodic presence broadcast every OpenSpace satellite emits
// over its omnidirectional RF antenna. Receivers use it to discover
// neighbours (satellites initiating ISL pairing) and to select an access
// satellite (ground users choosing the closest overhead spacecraft).
type Beacon struct {
	SatelliteID  string
	ProviderID   string
	Caps         Capability
	Orbit        OrbitalState
	LoadFraction float64 // 0..1 current utilisation, for load-aware selection
	SentAtS      float64 // transmission time, seconds since epoch
}

// AuthRequest opens the RADIUS-style authentication of a user with their
// home ISP (§2.2), relayed over ISLs by whichever satellite the user
// associated with.
type AuthRequest struct {
	UserID      string
	HomeISP     string
	ViaSatID    string // satellite relaying the request
	ClientNonce uint64
}

// AuthChallenge is the home ISP's challenge nonce.
type AuthChallenge struct {
	UserID      string
	ServerNonce uint64
}

// AuthResponse carries the user's proof of possession of the shared secret:
// HMAC-SHA256 over both nonces (computed in internal/auth).
type AuthResponse struct {
	UserID string
	Proof  []byte
}

// AuthResult closes the exchange. On success it carries the roaming
// certificate the home ISP issues so other providers can verify the user
// was authenticated without contacting the home ISP again (§2.2).
type AuthResult struct {
	UserID      string
	Success     bool
	Certificate []byte // serialised auth.Certificate
	Reason      string // populated on failure
}
