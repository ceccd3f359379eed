(** Catalogue of baseline policies, used by the CLI and experiments. *)

(** Online, cost-blind or cost-aware-but-uncoupled baselines. *)
let online =
  [
    Lru.policy;
    Fifo.policy;
    Lfu.policy;
    Random_policy.policy;
    Marking.policy;
    Lru_k.lru_2;
    Lru_k.lru_3;
    Landlord.static;
    Landlord.adaptive;
    Static_partition.equal_split;
    Clock.policy;
    Two_q.policy;
    Arc.policy;
    Randomized_marking.policy;
  ]

(** Offline references (need the full trace). *)
let offline = [ Belady.policy; Convex_belady.policy ]

let all = online @ offline
