//! Fires `unseen_emission` exactly once: a `msg` call whose class is a
//! variable, so the graph cannot tell which edge it adds. The same call
//! with a `lint:emits` naming its classes on its line is clean.
impl Sys {
    // lint:consumes(Req)
    fn notice(&mut self, st: &mut Stats, class: MsgClass) {
        st.msg(class); // lint:emits(Fwd)
        st.msg(class);
    }
}
