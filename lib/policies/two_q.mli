(** 2Q (Johnson & Shasha, VLDB'94), full version: A1in FIFO for new
    pages, A1out ghost FIFO of expelled identities, Am LRU for proven
    reusers.  Scan-resistant. *)

val policy : Ccache_sim.Policy.t
