(** Shard routing (see the interface).  The page-hash partition mixes
    the packed page through a SplitMix64-style avalanche before the
    modulo: the page's own hash alone leaves the low bits dominated by the page
    id, which for the dense ids the workload generators emit would turn
    [mod shards] into a round-robin over ids — adjacent pages of one
    tenant on adjacent shards, i.e. an accidentally adversarial
    partition for locality experiments. *)

open Ccache_trace

type t =
  | By_page of { shards : int }
  | By_tenant of { shards : int }

let by_page ~shards =
  if shards <= 0 then invalid_arg "Router.by_page: shards must be positive";
  By_page { shards }

let by_tenant ~shards =
  if shards <= 0 then invalid_arg "Router.by_tenant: shards must be positive";
  By_tenant { shards }

let shards = function By_page { shards } | By_tenant { shards } -> shards

let name = function By_page _ -> "page" | By_tenant _ -> "tenant"

(* SplitMix64-shaped finalizer (xorshift / odd-multiply rounds): every
   input bit affects every output bit, so the subsequent modulo sees a
   uniform value.  The multipliers are xxHash64's odd primes, chosen
   because they fit OCaml's 63-bit int literals; uniformity, not any
   published stream, is what matters here, and the masked result stays
   non-negative. *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x27d4eb2f165667c5 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x165667b19e3779f9 in
  (x lxor (x lsr 31)) land max_int

let route t page =
  match t with
  | By_page { shards } -> mix (Page.pack page) mod shards
  | By_tenant { shards } -> Page.user page mod shards

let split t trace =
  let n = shards t in
  let buckets = Array.make n [] in
  let len = Trace.length trace in
  for pos = len - 1 downto 0 do
    let page = Trace.request trace pos in
    let s = route t page in
    buckets.(s) <- page :: buckets.(s)
  done;
  let n_users = Trace.n_users trace in
  Array.map (fun pages -> Trace.of_list ~n_users pages) buckets
