package server

import (
	"errors"
	"net/http"
	"time"

	"github.com/ppdp/ppdp/internal/policy"
)

// Stored-policy CRUD: policies are named, reusable privacy-policy documents
// (see internal/policy). A fleet of callers shares one vetted policy by name
// instead of re-declaring criteria per request: anonymize and job requests
// reference it with "policy_ref", and the run pins the stored document as an
// immutable snapshot — deleting or re-creating the name later never changes
// what a run enforced, the same way releases pin their dataset snapshot.

// maxPolicyNameLen bounds stored-policy names; they are path segments and
// registry keys, not documents.
const maxPolicyNameLen = 128

// policyInfo is the JSON view of one stored policy.
type policyInfo struct {
	Name string `json:"name"`
	// Summary is the compact one-line rendering of the criteria.
	Summary string         `json:"summary"`
	Policy  *policy.Policy `json:"policy"`
	Created time.Time      `json:"created"`
}

func policyJSON(sp *storedPolicy) policyInfo {
	return policyInfo{
		Name:    sp.name,
		Summary: sp.Policy.Describe(),
		Policy:  sp.Policy,
		Created: time.Unix(0, sp.CreatedUnix),
	}
}

// createPolicyRequest is the POST /v1/policies body.
type createPolicyRequest struct {
	Name   string         `json:"name"`
	Policy *policy.Policy `json:"policy"`
}

// handleCreatePolicy stores a policy under a name. The document is
// canonicalized before storage, so GET returns the same bytes regardless of
// criterion order or omitted defaults in the upload.
func (s *Server) handleCreatePolicy(w http.ResponseWriter, r *http.Request) {
	var req createPolicyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" || len(req.Name) > maxPolicyNameLen {
		writeError(w, http.StatusBadRequest, "bad_request",
			"name is required and at most %d characters", maxPolicyNameLen)
		return
	}
	if req.Policy == nil {
		writeError(w, http.StatusBadRequest, "bad_request", "policy is required")
		return
	}
	canon, err := req.Policy.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_policy", "%v", err)
		return
	}
	sp := &storedPolicy{name: req.Name, policyMeta: policyMeta{Policy: canon, CreatedUnix: time.Now().UnixNano()}}
	if err := s.reg.putPolicy(sp); err != nil {
		writeRegistryError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, policyJSON(sp))
}

func (s *Server) handleListPolicies(w http.ResponseWriter, r *http.Request) {
	serveList(w, "policies", s.reg.policies.list(), policyJSON)
}

func (s *Server) handleGetPolicy(w http.ResponseWriter, r *http.Request) {
	serveGet(w, &s.reg.policies, r.PathValue("name"), policyJSON)
}

func (s *Server) handleDeletePolicy(w http.ResponseWriter, r *http.Request) {
	serveDelete(w, s.reg.deletePolicy(r.PathValue("name")))
}

// AddPolicy registers a policy under a name before the server starts taking
// traffic — the programmatic equivalent of POST /v1/policies, used by `ppdp
// serve -policy` and embedding callers.
func (s *Server) AddPolicy(name string, p *policy.Policy) error {
	if name == "" || len(name) > maxPolicyNameLen {
		return errors.New("server: policy name is required")
	}
	if p == nil {
		return errors.New("server: policy document is required")
	}
	canon, err := p.Canonical()
	if err != nil {
		return err
	}
	return s.reg.putPolicy(&storedPolicy{name: name, policyMeta: policyMeta{Policy: canon, CreatedUnix: time.Now().UnixNano()}})
}
